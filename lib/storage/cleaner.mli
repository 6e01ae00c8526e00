(** Garbage-collection victim selection.

    When free segments run low the storage manager must clean: copy the
    live blocks out of some closed segment and erase it.  Which segment to
    clean is the policy this module names.  Two classic policies:

    - {e Greedy}: clean the segment with the fewest live blocks — least
      copying now, but it re-cleans hot segments and lets cold, half-dead
      segments pin space forever.
    - {e Cost-benefit} (Rosenblum & Ousterhout): maximize
      [(age + 1) * (1 - u) / (1 + u)] where [u] is utilization and [age]
      the seconds since the segment last changed (+1 s so that brand-new
      segments do not all score 0); old, partly-dead segments get cleaned
      even at higher utilization, which keeps cleaning cost stable as the
      disk (here: flash) fills.

    {!Seg_index} makes the decision for {!Manager} from its per-live-count
    heaps: greedy takes the lowest id of the lowest live count, and
    cost-benefit keys the heaps by last-touched instant and computes the
    score itself.  The full-scan reference lives in [test/scan_oracle.ml];
    experiment E7 races the two policies. *)

type policy = Greedy | Cost_benefit

val pp_policy : Format.formatter -> policy -> unit
val policy_name : policy -> string

val write_amplification : blocks_written:int -> blocks_flushed:int -> float
(** Total flash programs (client flushes + cleaner copies) per client
    flush; 1.0 means the cleaner copied nothing.  [blocks_written] counts
    every program, [blocks_flushed] only the client's.  Returns 1.0 when
    nothing was flushed. *)

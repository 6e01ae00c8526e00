open Sim

(* --- Compiled traces ------------------------------------------------------

   A trace lowered to flat, pre-sized struct-of-arrays form: one int per
   field per record, no constructors, no per-record boxing.  Replay loops
   index these arrays directly instead of matching on [Record.op] and
   allocating a closure environment per record — the dispatch tag doubles
   as the index into whatever handler table the consumer pre-resolves. *)

module Compiled = struct
  (* Dispatch tags, densely numbered for table dispatch. *)
  let tag_create = 0
  let tag_write = 1
  let tag_read = 2
  let tag_truncate = 3
  let tag_delete = 4

  type t = {
    n : int;
    at_ns : int array;  (** Record instants, in trace time (ns). *)
    tag : int array;  (** One of the [tag_*] values. *)
    file : int array;
    arg1 : int array;  (** offset (write/read) or size (truncate); else 0. *)
    arg2 : int array;  (** bytes (write/read); else 0. *)
  }

  let length c = c.n

  let tag_of_op = function
    | Record.Create _ -> tag_create
    | Record.Write _ -> tag_write
    | Record.Read _ -> tag_read
    | Record.Truncate _ -> tag_truncate
    | Record.Delete _ -> tag_delete

  (* Lower records off the front of [records] until [max] are taken or the
     stream ends, and return them with the remainder.  Every node is forced
     exactly once — the node after the last one taken is left unforced, and
     an exhausted stream is returned as [Seq.empty] — so a channel-backed
     trace never re-reads a line. *)
  let compile_prefix ~max records =
    let cap = ref (min max 1024) in
    let at_ns = ref (Array.make !cap 0) in
    let tag = ref (Array.make !cap 0) in
    let file = ref (Array.make !cap 0) in
    let arg1 = ref (Array.make !cap 0) in
    let arg2 = ref (Array.make !cap 0) in
    let n = ref 0 in
    let grow () =
      let ncap = min max (2 * !cap) in
      let extend a = let na = Array.make ncap 0 in Array.blit !a 0 na 0 !n; a := na in
      extend at_ns; extend tag; extend file; extend arg1; extend arg2;
      cap := ncap
    in
    let push r =
      if !n = !cap then grow ();
      let i = !n in
      !at_ns.(i) <- Time.to_ns r.Record.at;
      !tag.(i) <- tag_of_op r.Record.op;
      !file.(i) <- Record.file r;
      (match r.Record.op with
      | Record.Write { offset; bytes; _ } | Record.Read { offset; bytes; _ } ->
        !arg1.(i) <- offset;
        !arg2.(i) <- bytes
      | Record.Truncate { size; _ } -> !arg1.(i) <- size
      | Record.Create _ | Record.Delete _ -> ());
      incr n
    in
    let rec fill records =
      if !n = max then records
      else
        match records () with
        | Seq.Nil -> Seq.empty
        | Seq.Cons (r, rest) ->
          push r;
          fill rest
    in
    let rest = fill records in
    let shrink a = if Array.length !a = !n then !a else Array.sub !a 0 !n in
    ( {
        n = !n;
        at_ns = shrink at_ns;
        tag = shrink tag;
        file = shrink file;
        arg1 = shrink arg1;
        arg2 = shrink arg2;
      },
      rest )

  let compile records = fst (compile_prefix ~max:max_int (List.to_seq records))

  let chunk_records = 4096

  let rec chunks records () =
    match compile_prefix ~max:chunk_records records with
    | { n = 0; _ }, _ -> Seq.Nil
    | c, rest -> Seq.Cons (c, chunks rest)

  (* Reconstruct a record (fallback paths and round-trip tests). *)
  let record c i =
    let file = c.file.(i) in
    let op =
      match c.tag.(i) with
      | 0 -> Record.Create { file }
      | 1 -> Record.Write { file; offset = c.arg1.(i); bytes = c.arg2.(i) }
      | 2 -> Record.Read { file; offset = c.arg1.(i); bytes = c.arg2.(i) }
      | 3 -> Record.Truncate { file; size = c.arg1.(i) }
      | _ -> Record.Delete { file }
    in
    { Record.at = Time.of_ns c.at_ns.(i); op }
end

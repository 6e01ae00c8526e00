type policy = Greedy | Cost_benefit

let policy_name = function Greedy -> "greedy" | Cost_benefit -> "cost-benefit"
let pp_policy ppf p = Fmt.string ppf (policy_name p)

let write_amplification ~blocks_written ~blocks_flushed =
  if blocks_flushed = 0 then 1.0
  else float_of_int blocks_written /. float_of_int blocks_flushed

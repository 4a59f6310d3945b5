(** The A/B regression verdict over perfbench runs made in alternating
    pairs on one host. A run is the last line [perfbench/run.sh]
    printed, [{"correct", "attempted", "failed", "metrics"}]. *)

type check = { ok : bool; line : string }

val judge :
  benchmark:Json.t ->
  base:(string * string list) list ->
  change:(string * string list) list ->
  check list
(** [benchmark] is the parsed [BENCHMARK.json]; [base] and [change] map
    each of its workloads to result lines in pair order. The gate
    passes when every check is [ok]. It fails when a workload has no
    runs or a different number per side, a line does not parse, any run
    has [correct = false], the change's share of failed ops is larger
    than the base's, or an end-to-end metric is worse than the base
    beyond its [bound] (in its [better] direction) in every pair where
    both sides report it. One pair that is not worse is enough: on a
    shared host a single pair can lose by any margin. *)

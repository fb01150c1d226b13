(** Deterministic reduction of per-trial results into one campaign
    report.

    Reduces exactly the trials a sequential run would have executed —
    indices [0..k], [k] the lowest failing index — using only
    order-insensitive merges (counter sums, histogram multisets, max),
    so a parallel campaign's report is byte-identical to the
    sequential one. A seed-per-trial kind's report is its trials folded
    through the kind's one merge ({!Driver.Make}); [check] and [fault]
    name two of them here. *)

module Cover = Komodo_spec.Cover
module Diff = Komodo_spec.Diff
module Explore = Komodo_spec.Explore
module Drive = Komodo_fault.Drive

val check :
  prefix:Diff.trial array ->
  failure:(Diff.trial, Diff.op, Diff.divergence) Driver.failure option ->
  Diff.outcome
(** [prefix] is trials [0..k-1] in index order; the failing trial (if
    any) rides in [failure]. Reproduces the sequential report exactly:
    [trials_run = k+1], [ops_run] summed over trials [0..k], coverage
    and metrics merged over the same set. *)

val fault :
  prefix:Drive.trial array ->
  failure:(Drive.trial, Drive.fop, Drive.violation) Driver.failure option ->
  Drive.outcome
(** Fault-campaign reduction: fop/injection totals are sums, blackout
    is a max, the violation reports the lowest failing trial. *)

(** One merged BFS level of the exhaustive explorer. *)
type explore_level = {
  el_edges : int;  (** edges checked across the level's shards *)
  el_new : (string * Explore.snode * int * Explore.xop) list;
      (** newly discovered states, deduplicated across shards
          first-writer-wins in shard order *)
  el_cover : Cover.t;
  el_violation : (int * Explore.xop * string) option;
      (** the lowest failing shard's violation, if any *)
}

val explore : Explore.shard list -> explore_level
(** Merge one level's shards (the pool's completed prefix, plus the
    lowest failing shard if the level stopped), in slice order. *)

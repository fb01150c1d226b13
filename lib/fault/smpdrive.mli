(** Multi-core lock-discipline campaigns over the interleaved stepper.

    Each trial boots the platform, runs a sequential prelude giving
    every CPU its own unfinalised address space (checked in lockstep
    against the spec, like {!Komodo_spec.Diff}'s), then races a seeded
    per-CPU stream of construction calls over a small shared page pool
    through {!Komodo_os.Smp.run}. Three oracles judge the run: the
    stepper's deadlock detector (any wait-for cycle is a violation —
    the ascending acquisition order excludes them by construction),
    {!Komodo_core.Pagedb.check} on the final shared state, and
    {!Komodo_spec.Linz.check} (some sequential order must explain the
    observed results and final abstract state). Violations shrink to a
    1-minimal op list and serialise to JSONL replay traces. *)

module Smp = Komodo_os.Smp

type sop = { s_cpu : int; s_call : int; s_args : int list }

val pp_sop : sop -> string

type violation = {
  index : int;  (** last op index of the violating run (for shrinking) *)
  kind : string;  (** ["deadlock"] | ["invariant"] | ["linearisability"] *)
  reason : string;
}

val pp_violation : violation -> string

type stats = {
  calls : int;
  contended : int;
  uncontended : int;
  spins : int;
  retries : int;
  lock_cycles : int;
  injections : int;  (** lock-boundary faults actually fired *)
  inconclusive : int;  (** 1 if the linearisability verdict was inconclusive *)
}

val run_sops :
  ?bug:Smp.bug ->
  ?faults:bool ->
  seed:int ->
  npages:int ->
  cpus:int ->
  sop list ->
  (stats, violation) result
(** Deterministic: rebuilds the whole world from [seed] each call. *)

val gen_sops : seed:int -> npages:int -> cpus:int -> ops_per_cpu:int -> sop list

type trial = { t_stats : stats; t_violation : violation option }
(** A violating trial reports all-zero stats. *)

val default_npages : int
val default_cpus : int
val default_ops : int

val run_trial :
  ?npages:int ->
  ?cpus:int ->
  ?ops_per_cpu:int ->
  ?bug:Smp.bug ->
  ?faults:bool ->
  seed:int ->
  unit ->
  trial

type outcome = {
  trials_run : int;
  total_calls : int;
  total_contended : int;
  total_uncontended : int;
  total_spins : int;
  total_retries : int;
  total_lock_cycles : int;
  total_injections : int;
  total_inconclusive : int;
  violation : (int * sop list * violation) option;
}

(** {2 Replay traces} (JSONL, like {!Drive}'s) *)

type header = {
  h_seed : int;
  h_npages : int;
  h_cpus : int;
  h_bug : Smp.bug option;
}

val trace_lines :
  seed:int -> npages:int -> cpus:int -> bug:Smp.bug option -> sop list ->
  string list

val trace_parse : string list -> (header * sop list, string) result
val replay : header -> sop list -> (stats, violation) result

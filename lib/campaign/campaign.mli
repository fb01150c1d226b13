(** Domain-parallel campaign engine: the public entry points.

    A campaign of [trials] trials under root seed [seed] is the same
    mathematical object at any [jobs]: trial [i] runs on seed
    [Seedsplit.derive ~root:seed i], the report covers trials [0..k]
    where [k] is the lowest failing index, and all merges are
    order-insensitive. [jobs] only chooses how many domains race
    through the index queue — `-j 1` and `-j N` emit byte-identical
    reports.

    [check], [fault], [vault] and [smp] are thin instances of the one
    engine, {!Driver.Make}, over the {!Kinds} drivers: on failure,
    higher-index trials are cancelled ({!Pool}), and the lowest failing
    trial is shrunk once, serially, on the calling domain. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], floored at 1 — the `-j`
    default. *)

val trial_seed : root:int -> int -> int
(** The seed trial [index] runs on under [root] (the {!Seedsplit}
    derivation; exposed so reports and replays can name it). *)

val check :
  ?mutate:Komodo_spec.Aspec.mutation ->
  ?npages:int ->
  ?ops_per_trial:int ->
  ?metrics:bool ->
  ?profile:bool ->
  ?clock:Komodo_telemetry.Span.clock ->
  ?progress:Progress.t ->
  ?jobs:int ->
  trials:int ->
  seed:int ->
  unit ->
  Komodo_spec.Diff.outcome
(** The differential refinement campaign (`komodo check`). [metrics]
    collects a per-trial telemetry registry and merges them into
    [outcome.metrics]. [profile] records per-trial span trees,
    concatenated in index order into [outcome.spans] (clock-free unless
    [clock] is given, hence identical at any [-j]). [progress] streams
    per-trial observations to a reporter; it only observes, so reports
    are unchanged. [jobs] defaults to {!default_jobs} (values
    [<= 0] also mean the default).
    @raise Invalid_argument before any trial runs if the geometry is
    out of the kind's range (too few pages, no CPUs).
    @raise Pool.Trial_error if a trial raises (e.g. a prelude
    divergence), naming the lowest raising trial and its seed.
    @raise Failure if a divergence does not reproduce when its trial
    is re-run for shrinking (a determinism bug). The other kinds raise
    the same three. *)

val fault :
  ?npages:int ->
  ?ops_per_trial:int ->
  ?profile:bool ->
  ?clock:Komodo_telemetry.Span.clock ->
  ?progress:Progress.t ->
  ?bug:Komodo_core.Monitor.bug ->
  ?jobs:int ->
  faults:Komodo_fault.Drive.fault_class list ->
  trials:int ->
  seed:int ->
  unit ->
  Komodo_fault.Drive.outcome
(** The fault-injection campaign (`komodo fault`), same engine and
    guarantees. *)

val vault :
  ?npages:int ->
  ?ops_per_trial:int ->
  ?progress:Progress.t ->
  ?bug:Komodo_user.Vault.bug ->
  ?jobs:int ->
  classes:Komodo_fault.Vaultdrive.storage_class list ->
  trials:int ->
  seed:int ->
  unit ->
  Komodo_fault.Vaultdrive.outcome
(** The sealed-storage fault campaign (`komodo vault`), same engine
    and guarantees: each trial boots a vault world from its derived
    seed, injects storage faults, and judges every unseal against
    {!Komodo_spec.Sealspec}. [bug] arms a detection-disable bug in the
    vault enclave (self-test). *)

val smp :
  ?npages:int ->
  ?cpus:int ->
  ?ops_per_cpu:int ->
  ?progress:Progress.t ->
  ?bug:Komodo_os.Smp.bug ->
  ?faults:bool ->
  ?jobs:int ->
  trials:int ->
  seed:int ->
  unit ->
  Komodo_fault.Smpdrive.outcome
(** The multi-core lock-discipline campaign (`komodo smp`), same
    engine and guarantees: each trial races seeded per-CPU call
    streams through the interleaved stepper and judges the run with
    the deadlock, PageDB-invariant, and linearisability oracles
    ({!Komodo_fault.Smpdrive}). [bug] re-arms a seeded
    lock-discipline bug (self-test); [faults] additionally fires the
    injector at lock acquire/release boundaries. *)

val explore_progress :
  Progress.t -> depth:int -> states:int -> edges:int -> violation:bool -> unit
(** A fresh progress observer for one exploration
    ({!Progress.observer}): folds a completed BFS level
    ([states]/[edges] are running totals) into a reporter, rendering
    depth versus the bound, distinct states and edges checked. *)

val explore :
  ?progress:Progress.t ->
  ?jobs:int ->
  config:Komodo_spec.Explore.config ->
  unit ->
  Komodo_spec.Explore.report
(** The bounded exhaustive search (`komodo explore`): BFS levels over
    {!Komodo_spec.Explore.expand_range}, each level's frontier sharded
    across the pool in fixed slices. Shards are pure up to the
    read-only visited set and merged in slice order ({!Agg.explore}),
    so states, edges, coverage and any counterexample are byte-identical
    at any [jobs]. On a violation the recorded BFS parent chain (a
    shortest path) is completed with the violating op and the prelude
    prepended; deeper levels are not explored.
    @raise Invalid_argument if the config is out of range
    (fewer than {!Komodo_spec.Explore.min_pages} pages, negative
    depth). *)

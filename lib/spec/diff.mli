(** The differential refinement checker.

    Builds a world (booted platform plus a *probe* enclave whose
    behaviour the spec predicts exactly, a workload enclave with
    exit/fault/spin threads, and an unfinalised enclave mid
    construction), generates adversarial OS call sequences biased
    toward lifecycle edges, aliased page numbers, interrupt injection
    mid-Enter and the §8.2/§9.1 attack shapes, and steps the abstract
    spec ({!Aspec}) and the real monitor in lockstep, checking after
    every call that

    {v abs (impl_step s c)  =  spec_step (abs s) c v}

    including the returned error code and r1 value. Any divergence is
    shrunk to a minimal op trace by greedy deletion. The prelude that
    builds the world runs through the same checked lockstep pipeline,
    so construction-call coverage is free and exact. *)

type op =
  | Smc of { call : int; args : int list; budget : int option }
      (** one monitor call; [budget] arms the interrupt source before
          the crossing (None leaves interrupts off) *)
  | Write_ins of { addr : int; value : int }
      (** an OS store to insecure memory between calls *)

val pp_op : op -> string

val smc_fields : call:int -> args:int list -> budget:int option -> (string * Komodo_telemetry.Json.t) list
(** An [Smc] op's object fields, for formats that append their own. *)

val op_to_json : op -> Komodo_telemetry.Json.t
val op_of_json : Komodo_telemetry.Json.t -> (op, string) result
(** The one JSON codec for ops, shared by the fault campaign's traces
    and explore counterexamples; [op_of_json (op_to_json o) = Ok o]. *)

type divergence = { index : int; op : op; reason : string }

val pp_divergence : divergence -> string

val min_pages : int
(** 6: the probe enclave occupies pages 0-5, so smaller worlds cannot be
    built. *)

val check_pages : int -> (int, string) result
(** {!min_pages}..[Platform.max_pages]: the check and fault campaigns'
    page bound, enforced on their configs and trace headers. *)

type world
(** A built post-prelude world; reusable as the fixed starting point of
    any number of op-sequence runs (generation, shrinking, replay). *)

type rstate = {
  os : Komodo_os.Os.t;  (** the concrete system *)
  spec : Astate.t;  (** the abstract state tracked in lockstep *)
  probe_ok : bool;
      (** latches false permanently once the probe enclave's shape is
          broken; later runs treat the probe as opaque *)
  abs_cache : Abs.cache;
      (** decoded page-table memo for the post-op abstraction; validated
          by memory-chunk identity, so any stepping order may share it *)
}
(** One side-by-side lockstep state, exposed so external drivers (the
    fault injector) can step ops with {!apply_op} and interleave their
    own checks. *)

val initial_rstate : world -> rstate

val make_world :
  ?mutate:Aspec.mutation ->
  ?npages:int ->
  ?sink:Komodo_telemetry.Sink.t ->
  ?spans:Komodo_telemetry.Span.recorder ->
  seed:int ->
  unit ->
  world
(** Boot and build the three prelude enclaves through the checked
    lockstep pipeline. The prelude always runs against the unmutated
    spec — a [mutate] flag applies to the generated phase only.
    [sink] attaches a telemetry sink to the booted monitor (a metrics
    registry, when the campaign engine is asked to collect one);
    [spans] attaches a span recorder, profiling the prelude and every
    subsequent op through this world.
    @raise Failure if the prelude itself diverges. *)

val world_cover : world -> Cover.t
(** Coverage recorded while building the prelude. *)

val probe_thread : world -> int
(** The probe enclave's thread page. *)

val probe_shape : Astate.t -> bool
(** Whether the prelude's probe enclave is still intact in an abstract
    state: addrspace 0 final with its original first-level table, and
    page 5 the original idle thread. This is the exact predicate behind
    the [probe_ok] latch — exposed so the exhaustive explorer
    ({!Explore}) latches identically and its traces replay through this
    checker without spurious probe-opacity divergences. *)

val is_probe : probe_ok:bool -> Astate.t -> int -> bool
(** The [probe] oracle of {!Aspec.step_smc}: thread page [n] runs as the
    predicted probe iff the latch is up and {!probe_shape} holds. *)

val record_probe_run :
  Cover.t -> probe_ok:bool -> Astate.t ->
  call:int -> args:int list -> err:int -> ret:int -> unit
(** Record the SVC a successful predicted probe run executed. *)

val latch_probe : probe_ok:bool -> Astate.t -> Astate.t -> bool
(** The break-only [probe_ok] latch across one step. *)

val staged_source : Astate.plat -> call:int -> args:int list -> int
(** The insecure page a MapSecure copies, when the spec's preconditions
    on it hold; 0 when it copies none. *)

val apply_op :
  ?mutate:Aspec.mutation ->
  ?cover:Cover.t ->
  ?opaque_contents:bool ->
  ?opaque_probe:bool ->
  ?rng_exhausted:bool ->
  rstate ->
  int ->
  op ->
  (rstate, divergence) result
(** One lockstep step: run [op] against the implementation and the spec
    and compare. [opaque_contents] forces the MapSecure contents oracle
    to opaque (a fault driver mutating insecure memory mid-call cannot
    know what the handler will read). [opaque_probe] treats a probe
    Enter as an opaque enclave run (instruction-level injection makes
    its outcome unpredictable). [rng_exhausted] overrides the entropy
    oracle, which defaults to the implementation's pre-call budget. *)

(** {2 The lockstep world}, shared by the differential checker, the
    explorer's replays and the smp campaign's prelude. *)

val mapping_rw : int -> int
val mapping_rx : int -> int
val prelude_ops : op list

val staged : (int * string) list
(** The program pages staged for the prelude, by insecure address. *)

val start : Komodo_os.Os.t -> rstate
(** A system's lockstep start state. *)

val run_from :
  ?mutate:Aspec.mutation -> ?cover:Cover.t -> rstate -> int -> op list ->
  (rstate * int, divergence) result
(** The op loop from index [i]: [Ok (rs, n)] when ops [i .. n-1] all matched. *)

val prelude_world :
  ?mutate:Aspec.mutation -> ?cover:Cover.t -> ?sink:Komodo_telemetry.Sink.t ->
  ?spans:Komodo_telemetry.Span.recorder -> seed:int -> npages:int -> op list ->
  (rstate, divergence) result
(** Boot, stage {!staged}, step the prelude from {!start}, zero the
    staging window. *)

val gen_ops : world -> seed:int -> n:int -> op list
(** Generate an adversarial op sequence. Generation is coverage-guided
    at the trial level: the profile rotates with the seed, and SVC
    probes cycle through every call number. *)

val run_ops : ?cover:Cover.t -> world -> op list -> (int, divergence) result
(** Run an op sequence from the world's initial state in lockstep;
    [Ok n] means all [n] ops matched, [Error d] is the first
    divergence. *)

val shrink_seq :
  run:('op list -> ('ok, 'bad) result) ->
  index:('bad -> int) ->
  'op list ->
  'op list * 'bad
(** Generic greedy 1-minimal shrinker: truncate at the first failure
    ([index] extracts its position), then repeatedly drop single ops
    while the remainder still fails.
    @raise Invalid_argument if [run ops] does not fail. *)

(** {2 Campaign trials}

    One differential trial is a pure function of its seed: build a
    world, generate an adversarial sequence, step it in lockstep. The
    campaign loop itself lives in [Komodo_campaign.Campaign], which
    derives per-trial seeds with a splittable PRNG and runs trials on
    a domain pool — this module only supplies the per-trial unit. *)

type trial = {
  t_ops_run : int;
      (** generated ops that matched (the divergent op excluded) *)
  t_cover : Cover.t;  (** prelude + generated-phase coverage *)
  t_metrics : Komodo_telemetry.Metrics.t option;
      (** per-trial telemetry registry, when requested *)
  t_spans : Komodo_telemetry.Span.node list;
      (** per-trial profile spans ([[]] unless profiling) *)
  t_divergence : divergence option;
}

val run_trial :
  ?mutate:Aspec.mutation ->
  ?npages:int ->
  ?ops_per_trial:int ->
  ?metrics:bool ->
  ?profile:bool ->
  ?clock:Komodo_telemetry.Span.clock ->
  seed:int ->
  unit ->
  trial
(** Run one differential trial, deterministically from [seed]. No
    shrinking — a campaign shrinks only its lowest failing trial, once,
    on one domain, regenerating it and calling {!shrink_seq}. [profile]
    records a span tree into [t_spans]; without [clock] it is a pure
    function of the seed (wallclock fields 0), so profiles diff
    identically across [-j] levels. *)

type outcome = {
  trials_run : int;
  ops_run : int;
  divergence : (int * op list * divergence) option;
      (** trial seed, shrunk ops, divergence *)
  cover : Cover.t;
  metrics : Komodo_telemetry.Metrics.t option;
      (** merged per-trial registries, when collected *)
  spans : Komodo_telemetry.Span.node list;
      (** per-trial span trees concatenated in trial-index order ([[]]
          unless profiling) *)
}
(** A whole-campaign report, assembled by the campaign engine's reducer
    with sequential semantics: counts cover trials [0..k] where [k] is
    the lowest failing index (or all trials), regardless of how many
    domains ran the campaign. *)

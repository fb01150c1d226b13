(** Fault-injection campaigns over the differential lockstep checker.

    Each trial builds a {!Komodo_spec.Diff} world (booted platform,
    probe + workload + mid-construction enclaves), installs the
    {!Inject} hooks into the monitor and the user-mode executor, and
    then steps an adversarial op sequence decorated with faults:
    spurious IRQ/FIQ at commit points and instruction boundaries,
    concurrent-core stores to insecure memory mid-SMC, entropy
    exhaustion and reseeding, SMC storms of malformed calls, and
    crash/restarts of the untrusted OS with enclaves live.

    After every step the driver asserts, on top of the lockstep spec
    comparison {!Komodo_spec.Diff.apply_op} already performs:

    - the PageDB invariants ({!Komodo_core.Pagedb.check}) still hold;
    - transactional atomicity: a call that returned an error left the
      PageDB *and* the concrete contents of every secure page exactly
      as they were (Enter/Resume excepted — they commit before running
      opaque enclave code, whose suspension is a legal effect).

    A violating campaign is shrunk with the checker's generic
    1-minimal shrinker. Everything is seed-deterministic, and a shrunk
    campaign serialises to a JSONL trace that replays exactly. *)

module Monitor = Komodo_core.Monitor
module Diff = Komodo_spec.Diff
module Span = Komodo_telemetry.Span

(** The five fault classes of the campaign generator. *)
type fault_class =
  | F_irq  (** spurious IRQ/FIQ at commit points and instruction boundaries *)
  | F_mem  (** concurrent-core/DMA stores to insecure memory mid-call *)
  | F_rng  (** entropy-source exhaustion and glitch reseeds *)
  | F_storm  (** bursts of malformed SMCs on the monitor interface *)
  | F_crash  (** crash/restart of the untrusted OS with enclaves live *)

val class_name : fault_class -> string
val class_of_string : string -> fault_class option
val all_classes : fault_class list

(** One campaign step: a checked lockstep op with faults armed, or an
    OS crash/restart between calls. *)
type fop =
  | Op of { op : Diff.op; inj : Inject.plan_item list }
  | Crash of { seed : int }

val pp_fop : fop -> string

type violation = { index : int; fop : fop; reason : string }

val pp_violation : violation -> string

type stats = {
  fops_run : int;
  injections : int;  (** faults actually fired *)
  worst_blackout : int;
      (** widest window (cycles) between a commit-point interrupt
          assertion and the OS regaining control *)
}

val run_fops :
  ?bug:Monitor.bug -> Diff.world -> fop list -> (stats, violation) result
(** Run one campaign from the world's initial state. [bug] re-enables a
    deliberate partial-mutation bug in the monitor (checker
    self-test). *)

val gen_fops :
  Diff.world -> faults:fault_class list -> seed:int -> n:int -> fop list
(** Decorate an adversarial op sequence with faults drawn from the
    enabled classes; deterministic in [seed]. *)

(** {2 Campaign trials}

    One fault trial is a pure function of its seed; the campaign loop
    lives in [Komodo_campaign.Campaign] (seed-split trial derivation,
    domain pool, deterministic reduction) — this module supplies the
    per-trial unit. *)

type trial = {
  t_fops_run : int;
      (** fops stepped; on violation, only those before it *)
  t_injections : int;  (** 0 on a violating trial (report convention) *)
  t_blackout : int;  (** 0 on a violating trial *)
  t_classes : (string * int) list;
      (** armed plan items per fault class (crash fops under ["crash"];
          storms are malformed ops, not injections, so they are not
          listed); all-zero on a violating trial *)
  t_spans : Span.node list;
      (** per-trial profile spans ([[]] unless profiling) *)
  t_violation : violation option;
}

val run_trial :
  ?npages:int ->
  ?ops_per_trial:int ->
  ?profile:bool ->
  ?clock:Span.clock ->
  ?bug:Monitor.bug ->
  faults:fault_class list ->
  seed:int ->
  unit ->
  trial
(** Run one fault-decorated trial, deterministically from [seed].
    [profile] records a span tree into [t_spans]; without [clock] the
    tree is a pure function of the seed. *)

type outcome = {
  trials_run : int;
  total_fops : int;
  total_injections : int;
  blackout : int;  (** worst over all trials, cycles *)
  violation : (int * fop list * violation) option;
      (** trial seed, shrunk campaign, violation *)
  spans : Span.node list;
      (** per-trial span trees concatenated in trial-index order *)
}
(** A whole-campaign report, assembled by the campaign engine's
    reducer with sequential semantics (lowest failing index wins). *)

(* -- replay traces (JSONL) --------------------------------------------- *)

type header = { h_seed : int; h_npages : int; h_bug : Monitor.bug option }

val trace_lines :
  seed:int -> npages:int -> bug:Monitor.bug option -> fop list -> string list
(** Serialise a campaign: a header line then one JSON object per fop. *)

val trace_parse : string list -> (header * fop list, string) result

val replay : header -> fop list -> (stats, violation) result
(** Rebuild the world from the header and re-run the campaign. *)

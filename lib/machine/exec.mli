(** User-mode execution.

    Runs flat programs ({!Insn.fop}) fetched from enclave memory through
    the page table — code pages are ordinary measured data pages — with
    every data access translated and permission-checked, and external
    interrupts modelled by [State.irq_budget]. A burst of user execution
    always ends with an {!event}, which the monitor's Enter/Resume loop
    turns into the corresponding ARM exception.

    Native services: a code page beginning with {!native_magic} names a
    registered native function instead of bytecode. These model
    enclaves (the notary, the verifier) whose inner loops would be
    impractical in bytecode; they receive the same translated view of
    memory and must keep any resumable state in registers and enclave
    memory, like real code. *)

type fault = Alignment | Translation | Permission | Prefetch | Undef_insn

val equal_fault : fault -> fault -> bool
val pp_fault : Format.formatter -> fault -> unit
val show_fault : fault -> string

type event =
  | Ev_svc of Word.t  (** SVC taken; the immediate is a call hint *)
  | Ev_irq
  | Ev_fiq
  | Ev_fault of fault

val equal_event : event -> event -> bool
val pp_event : Format.formatter -> event -> unit
val show_event : event -> string

val code_magic : Word.t
(** First word of a bytecode code page ("KODC"). *)

val native_magic : Word.t
(** First word of a native-service code page ("KONV"). *)

(** Loads and stores as issued by user-mode code: virtual addresses
    translated through TTBR0, permission-checked. Also the only memory
    access native services may use, which keeps them honest. *)
module Uview : sig
  val translate : State.t -> Word.t -> (Ptable.frame, fault) result
  val load : State.t -> Word.t -> (Word.t, fault) result
  val store : State.t -> Word.t -> Word.t -> (State.t, fault) result

  val fetch : State.t -> Word.t -> (Word.t, fault) result
  (** Instruction fetch: requires execute permission. *)
end

type native_outcome = { nstate : State.t; nevent : event }

type native = State.t -> native_outcome
(** A native service invocation: one burst of execution ending in an
    event. *)

type code_image = Bytecode of Insn.fop array | Native_ref of int | Bad_image

val fetch_image : State.t -> entry_va:Word.t -> code_image
(** Read and decode the program at [entry_va] (header: magic, length,
    body), fetching through the page table. One translation and one
    bulk load per virtual page. *)

type image_cache
(** A small per-executor memo of decoded bytecode programs, keyed on
    entry point. A hit requires every page the image was fetched from
    to still translate to the same executable frame backed by the same
    (immutable) memory chunk — so a hit is provably identical to
    refetching, and any store to a code page, remapping, or table edit
    invalidates by construction. *)

val image_cache : unit -> image_cache

type inject = {
  due : unit -> bool;
      (** Called exactly once at every instruction boundary the burst
          reaches, before anything else happens there — including a
          boundary where the burst then stops for fuel, budget or a
          prefetch abort. [true] asks for [fire] at this boundary. It
          sees no machine state, so a boundary where nothing fires
          materialises no [State.t]. *)
  fire : State.t -> State.t * event option;
      (** Called right after [due] returned [true], with the machine
          state at that boundary. It may perturb the state (asynchronous
          hardware writes to memory the attacker owns); the burst
          continues from the state it returns. [Some ev] forces [ev],
          ending the burst exactly as a real interrupt would. *)
}
(** The fault-injection hook, consulted at every instruction boundary
    before the interrupt check. *)

val run_bytecode :
  ?probe:(steps:int -> unit) ->
  ?inject:inject ->
  State.t ->
  Insn.fop array ->
  start_pc:int ->
  fuel:int ->
  State.t * event
(** Interpret from flat index [start_pc] until an event; [fuel] bounds
    total steps (exhaustion models a timer interrupt). On return,
    [State.upc] holds the flat index at which execution stopped — the
    resumption PC (for SVCs, past the SVC; for faults, the faulting
    instruction itself so it can be retried). [probe] observes the
    number of instructions retired in the burst (telemetry hook; never
    affects execution or cycle charging).

    A burst owns its machine state: it reads the registers, flags,
    memory, FAR, cycle counter and IRQ budget out of the given state
    once, steps them in place (only a store allocates, in memory's
    copy-on-write), and returns one [State.t] when it ends — at an SVC,
    a fault, an interrupt from the budget or the fuel, or an event
    forced by [inject]. No intermediate state is observable, except the
    one materialised for [inject.fire]. *)

val run :
  ?probe:(steps:int -> unit) ->
  ?inject:inject ->
  ?cache:image_cache ->
  State.t ->
  entry_va:Word.t ->
  start_pc:int ->
  fuel:int ->
  native:(int -> native option) ->
  State.t * event
(** Execute user code at [entry_va], dispatching native services through
    [native]. An undecodable image is a prefetch abort. Bytecode runs
    as one {!run_bytecode} burst, under the same [probe] and [inject]
    contract; native bursts report zero retired instructions to [probe]
    and never consult [inject]. [cache] memoises decoded bytecode across
    bursts (see {!image_cache}). *)

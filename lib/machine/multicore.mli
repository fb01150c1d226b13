(** N-CPU machine state: per-CPU register banks sharing one
    copy-on-write memory.

    The split of {!State.t} the multi-core monitor steps over: each CPU
    owns a {e bank} (registers, PSR/mode/world, MMU base registers,
    TLB, user PC, fault address, cycles, interrupt budget); {!Memory.t}
    is shared. [view] assembles a single-core [State.t] for one CPU so
    the unmodified monitor runs against it; [commit_bank] publishes the
    bank-local half of a resulting state, while memory effects are
    published page-by-page by the stepper's commit phase. *)

type bank = {
  regs : Regs.t;
  cpsr : Psr.t;
  world : Mode.world;
  ttbr0_s : Word.t;
  ttbr1_s : Word.t;
  ttbr0_ns : Word.t;
  tlb : Tlb.t;
  scr_ns : bool;
  upc : Word.t;
  far : Word.t;
  cycles : int;
  irq_budget : int option;
}

type t = { banks : bank array; mem : Memory.t }

val create : cpus:int -> State.t -> t
(** Boot an N-core machine from a single-core state: every CPU starts
    with a copy of the boot bank; memory is shared.
    @raise Invalid_argument when [cpus < 1]. *)

val cpus : t -> int

val view : t -> int -> State.t
(** The full architectural state CPU [c] observes (bank + shared
    memory). @raise Invalid_argument on an unknown CPU. *)

val commit_bank : t -> int -> State.t -> t
(** Publish CPU [c]'s bank from a resulting state; the state's memory
    is deliberately ignored. *)

val set_mem : t -> Memory.t -> t
val cycles : t -> int -> int
val charge : t -> int -> int -> t
(** [charge t c n] adds [n] cycles to CPU [c]'s bank. *)

val total_cycles : t -> int
(** Aggregate work: the sum over CPUs. *)

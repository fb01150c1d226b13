(** N-CPU machine state: per-CPU register banks sharing one memory.

    The paper's machine model (§5.1) is single-core; its proposed
    multi-core route (§9.2) keeps one memory and replicates the
    architectural per-CPU state. This module is exactly that split of
    {!State.t}: everything except [mem] — general registers with their
    banking, PSR/mode/world, the MMU base registers and TLB, the user
    PC, fault address, cycle counter and interrupt budget — becomes a
    per-CPU {e bank}; the copy-on-write {!Memory.t} is shared.

    [view] assembles a full [State.t] for one CPU (bank + shared
    memory), so the whole single-core monitor runs unchanged against a
    per-CPU view; [commit_bank] writes a resulting state's bank fields
    back (deliberately {e not} its memory — memory effects are
    published separately, page by page, by the stepper's commit phase,
    which is what makes racy lost updates expressible when a lock is
    missing). *)

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

let bank_of_state (s : State.t) =
  {
    regs = s.State.regs;
    cpsr = s.State.cpsr;
    world = s.State.world;
    ttbr0_s = s.State.ttbr0_s;
    ttbr1_s = s.State.ttbr1_s;
    ttbr0_ns = s.State.ttbr0_ns;
    tlb = s.State.tlb;
    scr_ns = s.State.scr_ns;
    upc = s.State.upc;
    far = s.State.far;
    cycles = s.State.cycles;
    irq_budget = s.State.irq_budget;
  }

(** Boot an [cpus]-core machine from a single-core state: every CPU
    starts with a copy of the boot bank (as secondary cores released
    from the boot hold pen would), memory is shared. *)
let create ~cpus (s : State.t) =
  if cpus < 1 then invalid_arg "Multicore.create: at least one CPU";
  { banks = Array.init cpus (fun _ -> bank_of_state s); mem = s.State.mem }

let cpus t = Array.length t.banks

let check_cpu t c =
  if c < 0 || c >= Array.length t.banks then
    invalid_arg (Printf.sprintf "Multicore: no CPU %d" c)

(** The full architectural state CPU [c] observes: its bank plus the
    shared memory. *)
let view t c : State.t =
  check_cpu t c;
  let b = t.banks.(c) in
  {
    State.regs = b.regs;
    cpsr = b.cpsr;
    world = b.world;
    mem = t.mem;
    ttbr0_s = b.ttbr0_s;
    ttbr1_s = b.ttbr1_s;
    ttbr0_ns = b.ttbr0_ns;
    tlb = b.tlb;
    scr_ns = b.scr_ns;
    upc = b.upc;
    far = b.far;
    cycles = b.cycles;
    irq_budget = b.irq_budget;
  }

(** Publish CPU [c]'s bank-local effects from a resulting state. The
    state's memory is ignored — memory is committed page-wise via
    {!set_mem}/{!Memory.blit_page} by whoever owns the locks. *)
let commit_bank t c (s : State.t) =
  check_cpu t c;
  let banks = Array.copy t.banks in
  banks.(c) <- bank_of_state s;
  { t with banks }

let set_mem t mem = { t with mem }

let cycles t c =
  check_cpu t c;
  t.banks.(c).cycles

(** Charge cycles to one CPU's bank without building a full view. *)
let charge t c n =
  check_cpu t c;
  let banks = Array.copy t.banks in
  banks.(c) <- { banks.(c) with cycles = banks.(c).cycles + n };
  { t with banks }

let total_cycles t = Array.fold_left (fun a b -> a + b.cycles) 0 t.banks

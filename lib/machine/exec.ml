(** User-mode execution.

    The paper's machine model runs enclave code in user mode under the
    page table in TTBR0, taking an exception (SVC, interrupt, or fault)
    to end each burst of execution. Here we execute flat programs
    ({!Insn.fop}) fetched from enclave memory through the page table —
    code pages are ordinary measured data pages — with every data access
    translated and permission-checked, and external interrupts modelled
    by a step budget ([State.irq_budget]).

    Native programs: a page beginning with {!native_magic} names a
    registered native service by id instead of carrying bytecode. These
    model enclaves (like the notary) whose inner loops would be
    impractical in bytecode; they receive the same translated view of
    memory and must encode any resumable state into registers and enclave
    memory, exactly as real code would. *)

type fault = Alignment | Translation | Permission | Prefetch | Undef_insn
[@@deriving eq, show { with_path = false }]

type event =
  | Ev_svc of Word.t  (** SVC taken; immediate is the call hint *)
  | Ev_irq
  | Ev_fiq
  | Ev_fault of fault
[@@deriving eq, show { with_path = false }]

(** First word of an enclave code page: bytecode program ("KODC"). *)
let code_magic = Word.of_int 0x4B4F4443

(** First word of a native-service code page ("KONV"). *)
let native_magic = Word.of_int 0x4B4F4E56

(* -- Translated user view of memory ----------------------------------- *)

module Uview = struct
  (** Loads and stores as issued by user-mode code: virtual addresses,
      translated through the enclave table in TTBR0, permission-checked.
      Also usable by native programs, which keeps them honest: they can
      only touch memory their page table maps. *)

  (* Each access on a bare memory and table base; the interpreter's
     burst state holds exactly those. *)
  let translate_in mem ~ttbr va =
    match Ptable.translate mem ~ttbr va with
    | None -> Error Translation
    | Some f -> Ok f

  let load_in mem ~ttbr va =
    if not (Word.is_aligned va) then Error Alignment
    else
      match translate_in mem ~ttbr va with
      | Error f -> Error f
      | Ok f -> Ok (Memory.load mem f.Ptable.pa)

  let store_in mem ~ttbr va v =
    if not (Word.is_aligned va) then Error Alignment
    else
      match translate_in mem ~ttbr va with
      | Error f -> Error f
      | Ok f ->
          if not f.Ptable.perms.Ptable.w then Error Permission
          else Ok (Memory.store mem f.Ptable.pa v)

  let translate s va = translate_in s.State.mem ~ttbr:s.State.ttbr0_s va
  let load s va = load_in s.State.mem ~ttbr:s.State.ttbr0_s va

  let store s va v =
    match store_in s.State.mem ~ttbr:s.State.ttbr0_s va v with
    | Error f -> Error f
    | Ok mem -> Ok { s with State.mem }

  (** Fetch one word with execute permission (instruction fetch). *)
  let fetch s va =
    if not (Word.is_aligned va) then Error Prefetch
    else
      match translate s va with
      | Error _ -> Error Prefetch
      | Ok f ->
          if not f.Ptable.perms.Ptable.x then Error Prefetch
          else Ok (Memory.load s.State.mem f.Ptable.pa)
end

type native_outcome = { nstate : State.t; nevent : event }

(** A native service: runs on the machine state (accessing memory only
    through {!Uview}) and reports how its burst of execution ended. *)
type native = State.t -> native_outcome

(** What an entry-point page contains. *)
type code_image =
  | Bytecode of Insn.fop array
  | Native_ref of int
  | Bad_image  (** unrecognised or undecodable — prefetch abort *)

(* -- Image fetch and the decoded-program cache ------------------------- *)

(* What one page-sized piece of an image fetch depended on: the virtual
   address we translated, where it landed, and the identity of the
   memory chunk backing that physical page. Replaying the translation
   and finding the same frame and the same (never-mutated) chunk proves
   a cached decode would come out identical. *)
type image_dep = { fp_va : Word.t; fp_pa : Word.t; fp_page : Memory.page option }

type cache_entry = {
  ce_entry_va : Word.t;
  ce_deps : image_dep list;
  ce_image : code_image;
}

type image_cache = { mutable entries : cache_entry list (* MRU first *) }

let image_cache () = { entries = [] }

(* Keep a handful of programs: the refinement harness stages a few probe
   programs per world and re-enters them for every trial burst. *)
let cache_capacity = 8

exception Fetch_fail

(* Fetch [n] execute-permitted words from word-aligned [va], one
   translation and one bulk load per virtual page. Equivalent to [n]
   single-word [Uview.fetch]es: translation and the execute bit are
   per-page properties, and any per-word failure is a per-page failure. *)
let fetch_exec_range s va n =
  let out = Array.make n Word.zero in
  let deps = ref [] in
  let cur = ref (Word.to_int va) and pos = ref 0 and left = ref n in
  while !left > 0 do
    let off = (!cur lsr 2) land (Ptable.words_per_page - 1) in
    let span = min (Ptable.words_per_page - off) !left in
    let va_w = Word.of_int !cur in
    (match Uview.translate s va_w with
    | Error _ -> raise Fetch_fail
    | Ok f ->
        if not f.Ptable.perms.Ptable.x then raise Fetch_fail;
        let pa = f.Ptable.pa in
        let ws = Memory.load_range_array s.State.mem pa span in
        Array.blit ws 0 out !pos span;
        deps :=
          { fp_va = va_w; fp_pa = pa; fp_page = Memory.page_at s.State.mem pa }
          :: !deps);
    cur := (!cur + (4 * span)) land 0xFFFF_FFFF;
    pos := !pos + span;
    left := !left - span
  done;
  (out, List.rev !deps)

(** Read and decode the program at [entry_va] (header: magic, length in
    words, then the body), fetching through the page table. *)
let fetch_image_deps s ~entry_va =
  if not (Word.is_aligned entry_va) then (Bad_image, [])
  else
    match fetch_exec_range s entry_va 2 with
    | exception Fetch_fail -> (Bad_image, [])
    | hdr, hdeps ->
        if Word.equal hdr.(0) native_magic then (Native_ref (Word.to_int hdr.(1)), hdeps)
        else if Word.equal hdr.(0) code_magic then begin
          let n = Word.to_int hdr.(1) in
          if n < 0 || n > 4 * Ptable.words_per_page then (Bad_image, [])
          else
            match fetch_exec_range s (Word.add entry_va (Word.of_int 8)) n with
            | exception Fetch_fail -> (Bad_image, [])
            | body, bdeps -> (
                match Insn.decode_flat_array body with
                | Some prog -> (Bytecode prog, hdeps @ bdeps)
                | None -> (Bad_image, []))
        end
        else (Bad_image, [])

let fetch_image s ~entry_va = fst (fetch_image_deps s ~entry_va)

(* A cached image is reusable iff every page it was read from still
   translates to the same frame with execute permission and is still
   backed by the same chunk. Pure validation — chunk identity implies
   identical contents, hence an identical fetch-and-decode. *)
let deps_valid s deps =
  List.for_all
    (fun d ->
      match Uview.translate s d.fp_va with
      | Error _ -> false
      | Ok f ->
          f.Ptable.perms.Ptable.x
          && Word.equal f.Ptable.pa d.fp_pa
          && Memory.same_page (Memory.page_at s.State.mem d.fp_pa) d.fp_page)
    deps

let fetch_image_cached cache s ~entry_va =
  match
    List.find_opt
      (fun e -> Word.equal e.ce_entry_va entry_va && deps_valid s e.ce_deps)
      cache.entries
  with
  | Some e ->
      if not (match cache.entries with e' :: _ -> e' == e | [] -> false) then
        cache.entries <- e :: List.filter (fun e' -> e' != e) cache.entries;
      e.ce_image
  | None ->
      let image, deps = fetch_image_deps s ~entry_va in
      (* Only decoded bytecode is worth remembering; header-only images
         and failures are cheap to refetch. *)
      (match image with
      | Bytecode _ ->
          let keep =
            List.filteri
              (fun i e ->
                i < cache_capacity - 1
                && not (Word.equal e.ce_entry_va entry_va))
              cache.entries
          in
          cache.entries <- { ce_entry_va = entry_va; ce_deps = deps; ce_image = image } :: keep
      | Native_ref _ | Bad_image -> ());
      image

(* -- Bytecode interpretation ------------------------------------------ *)

type inject = { due : unit -> bool; fire : State.t -> State.t * event option }

(* One burst's machine state. The burst owns it outright: it is loaded
   from a [State.t] when the burst starts (and again after an inject
   hook fires), mutated in place at every instruction, and written back
   as one [State.t] when the burst ends. A step therefore allocates
   nothing, and no intermediate [State.t] exists for anything outside
   the burst to observe. [base] carries the fields user code cannot
   change (and the mode, which selects the banked SP/LR in [regs]). *)
type burst = {
  mutable base : State.t;
  mutable regs : Word.t array;  (** {!Regs.scratch} for [base]'s mode *)
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
  mutable mem : Memory.t;
  mutable far : Word.t;
  mutable cycles : int;
  mutable budgeted : bool;  (** [irq_budget <> None] *)
  mutable budget : int;  (** the [Some] payload when [budgeted] *)
  mutable retired : int;
}

let load b (s : State.t) =
  b.base <- s;
  b.regs <- Regs.scratch s.regs ~mode:(State.mode s);
  b.n <- s.cpsr.Psr.n;
  b.z <- s.cpsr.Psr.z;
  b.c <- s.cpsr.Psr.c;
  b.v <- s.cpsr.Psr.v;
  b.mem <- s.mem;
  b.far <- s.far;
  b.cycles <- s.cycles;
  match s.irq_budget with
  | Some k ->
      b.budgeted <- true;
      b.budget <- k
  | None ->
      b.budgeted <- false;
      b.budget <- 0

let to_state b ~upc =
  let s = b.base in
  {
    s with
    State.regs = Regs.install s.State.regs ~mode:(State.mode s) b.regs;
    cpsr = { s.State.cpsr with Psr.n = b.n; z = b.z; c = b.c; v = b.v };
    mem = b.mem;
    far = b.far;
    cycles = b.cycles;
    irq_budget = (if b.budgeted then Some b.budget else None);
    upc;
  }

let[@inline] get b r = b.regs.(Regs.slot r)
let[@inline] set b r v = b.regs.(Regs.slot r) <- v
let[@inline] operand b = function Insn.Reg r -> get b r | Insn.Imm w -> w

let set_nz b result =
  b.n <- Word.bit result 31;
  b.z <- Word.equal result Word.zero

let set_add_flags b x y =
  let result = Word.add x y in
  set_nz b result;
  b.c <- Word.to_int x + Word.to_int y > 0xFFFF_FFFF;
  b.v <- Word.bit x 31 = Word.bit y 31 && Word.bit result 31 <> Word.bit x 31

let set_sub_flags b x y =
  let result = Word.sub x y in
  set_nz b result;
  b.c <- Word.to_int x >= Word.to_int y (* NOT borrow *);
  b.v <- Word.bit x 31 <> Word.bit y 31 && Word.bit result 31 <> Word.bit x 31

let shift b rd rn op f =
  set b rd (f (get b rn) (Word.to_int (operand b op) land 0xFF))

(* Execute one non-control instruction on the burst state. [Some ev]
   is an SVC or a fault ending the burst (with the fault-address
   register set for data aborts); [None] retires it. *)
let exec_insn b (i : Insn.insn) =
  match i with
  | Mov (rd, op) -> set b rd (operand b op); None
  | Mvn (rd, op) -> set b rd (Word.lognot (operand b op)); None
  | Add (rd, rn, op) -> set b rd (Word.add (get b rn) (operand b op)); None
  | Sub (rd, rn, op) -> set b rd (Word.sub (get b rn) (operand b op)); None
  | Rsb (rd, rn, op) -> set b rd (Word.sub (operand b op) (get b rn)); None
  | Mul (rd, rn, rm) -> set b rd (Word.mul (get b rn) (get b rm)); None
  | And_ (rd, rn, op) -> set b rd (Word.logand (get b rn) (operand b op)); None
  | Orr (rd, rn, op) -> set b rd (Word.logor (get b rn) (operand b op)); None
  | Eor (rd, rn, op) -> set b rd (Word.logxor (get b rn) (operand b op)); None
  | Bic (rd, rn, op) ->
      set b rd (Word.logand (get b rn) (Word.lognot (operand b op))); None
  | Lsl (rd, rn, op) -> shift b rd rn op Word.shift_left; None
  | Lsr (rd, rn, op) -> shift b rd rn op Word.shift_right_logical; None
  | Asr (rd, rn, op) -> shift b rd rn op Word.shift_right_arith; None
  | Ror (rd, rn, op) -> shift b rd rn op Word.rotate_right; None
  | Cmp (rn, op) -> set_sub_flags b (get b rn) (operand b op); None
  | Cmn (rn, op) -> set_add_flags b (get b rn) (operand b op); None
  | Tst (rn, op) -> set_nz b (Word.logand (get b rn) (operand b op)); None
  | Ldr (rd, rn, op) -> (
      let va = Word.add (get b rn) (operand b op) in
      match Uview.load_in b.mem ~ttbr:b.base.State.ttbr0_s va with
      | Error f ->
          b.far <- va;
          Some (Ev_fault f)
      | Ok v -> set b rd v; None)
  | Str (rd, rn, op) -> (
      let va = Word.add (get b rn) (operand b op) in
      match Uview.store_in b.mem ~ttbr:b.base.State.ttbr0_s va (get b rd) with
      | Error f ->
          b.far <- va;
          Some (Ev_fault f)
      | Ok mem -> b.mem <- mem; None)
  | Svc imm -> Some (Ev_svc imm)
  | Udf -> Some (Ev_fault Undef_insn)
  | Nop -> None

(** Run the bytecode program from flat index [start_pc] until an event
    (see the interface for the contract). *)
let run_bytecode ?probe ?inject s (prog : Insn.fop array) ~start_pc ~fuel =
  let b =
    {
      base = s; regs = [||]; n = false; z = false; c = false; v = false;
      mem = s.State.mem; far = s.State.far; cycles = 0; budgeted = false;
      budget = 0; retired = 0;
    }
  in
  load b s;
  let n = Array.length prog in
  let finish pc ev =
    (match probe with Some f -> f ~steps:b.retired | None -> ());
    (to_state b ~upc:(Word.of_int pc), ev)
  in
  (* One instruction boundary: the inject hook, then the interrupt
     sources, then fetch and execute. *)
  let rec step pc fuel =
    match inject with
    | Some h when h.due () -> (
        let s, forced = h.fire (to_state b ~upc:b.base.State.upc) in
        load b s;
        match forced with Some ev -> finish pc ev | None -> retire pc fuel)
    | _ -> retire pc fuel
  and retire pc fuel =
    if fuel <= 0 || (b.budgeted && b.budget = 0) then finish pc Ev_irq
    else begin
      if b.budgeted then b.budget <- b.budget - 1;
      if pc < 0 || pc >= n then finish pc (Ev_fault Prefetch)
      else
        let op = prog.(pc) in
        b.cycles <- b.cycles + Insn.fop_cost op;
        b.retired <- b.retired + 1;
        match op with
        | Insn.FJmp t -> step t (fuel - 1)
        | Insn.FJcc (c, t) ->
            if Insn.holds_nzcv c ~n:b.n ~z:b.z ~c:b.c ~v:b.v then step t (fuel - 1)
            else step (pc + 1) (fuel - 1)
        | Insn.FI i -> (
            match exec_insn b i with
            | None -> step (pc + 1) (fuel - 1)
            | Some (Ev_svc _ as ev) ->
                (* The banked PC points past an SVC so a return resumes
                   after it; faults report the faulting instruction
                   itself (so a dispatcher can fix the mapping and
                   retry it). *)
                finish (pc + 1) ev
            | Some ev -> finish pc ev)
    end
  in
  step start_pc fuel

(** Execute user code at/under [entry_va] starting from flat index
    [start_pc], dispatching native services through [native]. [cache],
    if given, memoises decoded bytecode across bursts (validated against
    the page table and page chunk identity on every entry). *)
let run ?probe ?inject ?cache s ~entry_va ~start_pc ~fuel
    ~(native : int -> native option) =
  let image =
    match cache with
    | Some c -> fetch_image_cached c s ~entry_va
    | None -> fetch_image s ~entry_va
  in
  match image with
  | Bad_image -> (s, Ev_fault Prefetch)
  | Native_ref id -> (
      match native id with
      | None -> (s, Ev_fault Undef_insn)
      | Some prog ->
          let { nstate; nevent } = prog s in
          (* Native bursts retire no modelled instructions. *)
          (match probe with Some f -> f ~steps:0 | None -> ());
          (nstate, nevent))
  | Bytecode prog -> run_bytecode ?probe ?inject s prog ~start_pc ~fuel

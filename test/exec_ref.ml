(** Reference interpreter: the seed's bytecode loop and [step_insn],
    kept verbatim as the oracle for the qcheck equivalence suite in
    [Test_exec]. It rebuilds the whole [State.t] at every instruction,
    which is exactly what makes it easy to trust. Do not optimise this
    file. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Psr = Komodo_machine.Psr
module Insn = Komodo_machine.Insn
module Exec = Komodo_machine.Exec
open Exec

let operand_value s = function
  | Insn.Reg r -> State.read_reg s r
  | Insn.Imm w -> w

let add_with_flags a b =
  let result = Word.add a b in
  let carry = Word.to_int a + Word.to_int b > 0xFFFF_FFFF in
  let sa = Word.bit a 31 and sb = Word.bit b 31 and sr = Word.bit result 31 in
  let overflow = sa = sb && sr <> sa in
  (result, carry, overflow)

let sub_with_flags a b =
  let result = Word.sub a b in
  let carry = Word.to_int a >= Word.to_int b (* NOT borrow *) in
  let sa = Word.bit a 31 and sb = Word.bit b 31 and sr = Word.bit result 31 in
  let overflow = sa <> sb && sr <> sa in
  (result, carry, overflow)

(** Execute one non-control instruction. [Ok] is the next state; SVC and
    faults surface as [Error] carrying the event and the state at the
    event (with the fault-address register set for data aborts). *)
let step_insn s (i : Insn.insn) : (State.t, event * State.t) result =
  let binop rd rn op f =
    let v = f (State.read_reg s rn) (operand_value s op) in
    Ok (State.write_reg s rd v)
  in
  let shift rd rn op f =
    let amount = Word.to_int (operand_value s op) land 0xFF in
    Ok (State.write_reg s rd (f (State.read_reg s rn) amount))
  in
  match i with
  | Mov (rd, op) -> Ok (State.write_reg s rd (operand_value s op))
  | Mvn (rd, op) -> Ok (State.write_reg s rd (Word.lognot (operand_value s op)))
  | Add (rd, rn, op) -> binop rd rn op Word.add
  | Sub (rd, rn, op) -> binop rd rn op Word.sub
  | Rsb (rd, rn, op) ->
      Ok (State.write_reg s rd (Word.sub (operand_value s op) (State.read_reg s rn)))
  | Mul (rd, rn, rm) ->
      Ok (State.write_reg s rd (Word.mul (State.read_reg s rn) (State.read_reg s rm)))
  | And_ (rd, rn, op) -> binop rd rn op Word.logand
  | Orr (rd, rn, op) -> binop rd rn op Word.logor
  | Eor (rd, rn, op) -> binop rd rn op Word.logxor
  | Bic (rd, rn, op) -> binop rd rn op (fun a b -> Word.logand a (Word.lognot b))
  | Lsl (rd, rn, op) -> shift rd rn op Word.shift_left
  | Lsr (rd, rn, op) -> shift rd rn op Word.shift_right_logical
  | Asr (rd, rn, op) -> shift rd rn op Word.shift_right_arith
  | Ror (rd, rn, op) -> shift rd rn op Word.rotate_right
  | Cmp (rn, op) ->
      let result, carry, overflow =
        sub_with_flags (State.read_reg s rn) (operand_value s op)
      in
      Ok { s with State.cpsr = Psr.set_flags s.State.cpsr ~result ~carry ~overflow }
  | Cmn (rn, op) ->
      let result, carry, overflow =
        add_with_flags (State.read_reg s rn) (operand_value s op)
      in
      Ok { s with State.cpsr = Psr.set_flags s.State.cpsr ~result ~carry ~overflow }
  | Tst (rn, op) ->
      let result = Word.logand (State.read_reg s rn) (operand_value s op) in
      let cpsr =
        Psr.set_flags s.State.cpsr ~result ~carry:s.State.cpsr.Psr.c
          ~overflow:s.State.cpsr.Psr.v
      in
      Ok { s with State.cpsr }
  | Ldr (rd, rn, op) -> (
      let va = Word.add (State.read_reg s rn) (operand_value s op) in
      match Uview.load s va with
      | Error f -> Error (Ev_fault f, { s with State.far = va })
      | Ok v -> Ok (State.write_reg s rd v))
  | Str (rd, rn, op) -> (
      let va = Word.add (State.read_reg s rn) (operand_value s op) in
      match Uview.store s va (State.read_reg s rd) with
      | Error f -> Error (Ev_fault f, { s with State.far = va })
      | Ok s -> Ok s)
  | Svc imm -> Error (Ev_svc imm, s)
  | Udf -> Error (Ev_fault Undef_insn, s)
  | Nop -> Ok s

(** Run the bytecode program from flat index [start_pc] until an event.
    [fuel] bounds total steps (exhaustion models a timer interrupt).
    On return, [State.upc] holds the flat index at which execution
    stopped — the resumption PC. [probe], if given, observes the number
    of instructions retired in this burst — the machine layer's
    telemetry hook (it never affects execution or cycle charging).
    [inject] is the fault-injection hook, consulted at every
    instruction boundary before the interrupt check: it may perturb
    the machine state (modelling asynchronous hardware) and force an
    event, which ends the burst exactly as a real interrupt would. *)
let run_bytecode ?probe ?inject s (prog : Insn.fop array) ~start_pc ~fuel =
  let retired = ref 0 in
  let finish (s, ev) =
    (match probe with Some f -> f ~steps:!retired | None -> ());
    (s, ev)
  in
  let n = Array.length prog in
  let rec loop s pc fuel =
    let s, forced =
      match inject with None -> (s, None) | Some f -> f s
    in
    match forced with
    | Some ev -> ({ s with State.upc = Word.of_int pc }, ev)
    | None ->
    if fuel <= 0 then ({ s with State.upc = Word.of_int pc }, Ev_irq)
    else
      match s.State.irq_budget with
      | Some 0 -> ({ s with State.upc = Word.of_int pc }, Ev_irq)
      | budget ->
          let s = { s with State.irq_budget = Option.map (fun b -> b - 1) budget } in
          if pc < 0 || pc >= n then
            ({ s with State.upc = Word.of_int pc }, Ev_fault Prefetch)
          else
            let op = prog.(pc) in
            let s = State.charge (Insn.fop_cost op) s in
            incr retired;
            (match op with
            | Insn.FJmp t -> loop s t (fuel - 1)
            | Insn.FJcc (c, t) ->
                if Insn.holds c s.State.cpsr then loop s t (fuel - 1)
                else loop s (pc + 1) (fuel - 1)
            | Insn.FI i -> (
                match step_insn s i with
                | Ok s -> loop s (pc + 1) (fuel - 1)
                | Error (ev, s) ->
                    (* For SVC the banked PC points past the SVC so a
                       return resumes after it; faults report the
                       faulting instruction itself (so a dispatcher can
                       fix the mapping and retry it). *)
                    let resume_pc =
                      match ev with Ev_svc _ -> pc + 1 | _ -> pc
                    in
                    ({ s with State.upc = Word.of_int resume_pc }, ev)))
  in
  finish (loop s start_pc fuel)

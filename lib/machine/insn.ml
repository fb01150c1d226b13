(** The modelled instruction set.

    The paper models ~25 ARMv7 instructions plus a limited form of
    structured control flow (if/while/calls) instead of a program counter
    (§5.1). We mirror that split:

    - [stmt] is the structured source form programs are written in
      (the analogue of Vale procedures);
    - [fop] is a flat form with explicit branch targets, produced by
      {!flatten} — the analogue of the assembly the trusted printer
      emits. Flat programs have a real program counter (an index), which
      is what gets banked into LR when an exception interrupts user code;
    - {!encode_flat}/{!decode_flat} give flat programs a word-level
      binary encoding so enclave code is stored in (and measured as part
      of) ordinary data pages. *)

type cond = EQ | NE | CS | CC | MI | PL | HI | LS | GE | LT | GT | LE | AL
[@@deriving eq, ord, show { with_path = false }]

type operand = Reg of Regs.reg | Imm of Word.t [@@deriving eq]

let pp_operand fmt = function
  | Reg r -> Regs.pp_reg fmt r
  | Imm w -> Fmt.pf fmt "#%a" Word.pp w

type insn =
  | Mov of Regs.reg * operand
  | Mvn of Regs.reg * operand  (** bitwise-not move *)
  | Add of Regs.reg * Regs.reg * operand
  | Sub of Regs.reg * Regs.reg * operand
  | Rsb of Regs.reg * Regs.reg * operand  (** reverse subtract *)
  | Mul of Regs.reg * Regs.reg * Regs.reg
  | And_ of Regs.reg * Regs.reg * operand
  | Orr of Regs.reg * Regs.reg * operand
  | Eor of Regs.reg * Regs.reg * operand
  | Bic of Regs.reg * Regs.reg * operand  (** bit clear *)
  | Lsl of Regs.reg * Regs.reg * operand
  | Lsr of Regs.reg * Regs.reg * operand
  | Asr of Regs.reg * Regs.reg * operand
  | Ror of Regs.reg * Regs.reg * operand
  | Cmp of Regs.reg * operand  (** sets NZCV *)
  | Cmn of Regs.reg * operand  (** compare negative: flags from rn + op *)
  | Tst of Regs.reg * operand  (** sets NZ from AND *)
  | Ldr of Regs.reg * Regs.reg * operand  (** rd := \[rn + ofs\] *)
  | Str of Regs.reg * Regs.reg * operand  (** \[rn + ofs\] := rd *)
  | Svc of Word.t  (** supervisor call into the monitor *)
  | Udf  (** permanently-undefined instruction (faults) *)
  | Nop
[@@deriving eq]

type stmt =
  | I of insn
  | If of cond * stmt list * stmt list
  | While of cond * stmt list
[@@deriving eq]

(** Flat micro-ops: straight-line instructions plus explicit branches.
    Targets are absolute indices into the flat program. *)
type fop = FI of insn | FJmp of int | FJcc of cond * int [@@deriving eq]

let negate = function
  | EQ -> NE
  | NE -> EQ
  | CS -> CC
  | CC -> CS
  | MI -> PL
  | PL -> MI
  | HI -> LS
  | LS -> HI
  | GE -> LT
  | LT -> GE
  | GT -> LE
  | LE -> GT
  | AL -> invalid_arg "Insn.negate: AL has no negation"

(** Evaluate a condition against the NZCV flags. *)
let holds_nzcv cond ~n ~z ~c ~v =
  match cond with
  | EQ -> z
  | NE -> not z
  | CS -> c
  | CC -> not c
  | MI -> n
  | PL -> not n
  | HI -> c && not z
  | LS -> (not c) || z
  | GE -> n = v
  | LT -> n <> v
  | GT -> (not z) && n = v
  | LE -> z || n <> v
  | AL -> true

let holds cond (p : Psr.t) =
  holds_nzcv cond ~n:p.Psr.n ~z:p.Psr.z ~c:p.Psr.c ~v:p.Psr.v

(* -- Flattening ------------------------------------------------------- *)

(** Compile structured statements to flat form. [If] becomes a
    conditional branch over the then-block; [While] a backward loop. *)
let flatten (stmts : stmt list) : fop array =
  let buf = ref [] and len = ref 0 in
  let emit op =
    buf := op :: !buf;
    incr len
  in
  (* Emit a placeholder branch; patch its target once known. *)
  let emit_patch mk =
    let at = !len in
    emit (mk 0);
    at
  in
  let patch at target =
    buf :=
      List.mapi
        (fun i op ->
          if i = !len - 1 - at then
            match op with
            | FJmp _ -> FJmp target
            | FJcc (c, _) -> FJcc (c, target)
            | FI _ -> op
          else op)
        !buf
  in
  let rec go = function
    | [] -> ()
    | I i :: rest ->
        emit (FI i);
        go rest
    | If (c, then_b, else_b) :: rest ->
        if equal_cond c AL then (
          List.iter (fun s -> go [ s ]) then_b;
          go rest)
        else begin
          let jcc = emit_patch (fun t -> FJcc (negate c, t)) in
          List.iter (fun s -> go [ s ]) then_b;
          (match else_b with
          | [] -> patch jcc !len
          | _ ->
              let jend = emit_patch (fun t -> FJmp t) in
              patch jcc !len;
              List.iter (fun s -> go [ s ]) else_b;
              patch jend !len);
          go rest
        end
    | While (c, body) :: rest ->
        let top = !len in
        if equal_cond c AL then begin
          List.iter (fun s -> go [ s ]) body;
          emit (FJmp top)
        end
        else begin
          let jcc = emit_patch (fun t -> FJcc (negate c, t)) in
          List.iter (fun s -> go [ s ]) body;
          emit (FJmp top);
          patch jcc !len
        end;
        go rest
  in
  go stmts;
  Array.of_list (List.rev !buf)

(* -- Binary encoding --------------------------------------------------
   One or two words per flat op:
     word0 bits [31:24] opcode, [23:16] rd, [15:8] rn, [7] operand-is-
     immediate, [6:0] rm. When bit 7 is set a second word carries the
     immediate. Branches pack cond in [23:20] and target in [19:0]. *)

let tag_of_insn = function
  | Mov _ -> 0x01
  | Mvn _ -> 0x02
  | Add _ -> 0x03
  | Sub _ -> 0x04
  | Rsb _ -> 0x05
  | Mul _ -> 0x06
  | And_ _ -> 0x07
  | Orr _ -> 0x08
  | Eor _ -> 0x09
  | Bic _ -> 0x0A
  | Lsl _ -> 0x0B
  | Lsr _ -> 0x0C
  | Asr _ -> 0x0D
  | Ror _ -> 0x0E
  | Cmp _ -> 0x0F
  | Tst _ -> 0x10
  | Ldr _ -> 0x11
  | Str _ -> 0x12
  | Svc _ -> 0x13
  | Nop -> 0x14
  | Udf -> 0x15
  | Cmn _ -> 0x16

let tag_jmp = 0x20
let tag_jcc = 0x21

let encode_reg = function Regs.R n -> n | Regs.SP -> 13 | Regs.LR -> 14

let decode_reg = function
  | n when n >= 0 && n <= 12 -> Some (Regs.R n)
  | 13 -> Some Regs.SP
  | 14 -> Some Regs.LR
  | _ -> None

let encode_cond = function
  | EQ -> 0
  | NE -> 1
  | CS -> 2
  | CC -> 3
  | MI -> 4
  | PL -> 5
  | HI -> 6
  | LS -> 7
  | GE -> 8
  | LT -> 9
  | GT -> 10
  | LE -> 11
  | AL -> 12

let decode_cond = function
  | 0 -> Some EQ
  | 1 -> Some NE
  | 2 -> Some CS
  | 3 -> Some CC
  | 4 -> Some MI
  | 5 -> Some PL
  | 6 -> Some HI
  | 7 -> Some LS
  | 8 -> Some GE
  | 9 -> Some LT
  | 10 -> Some GT
  | 11 -> Some LE
  | 12 -> Some AL
  | _ -> None

let pack ~tag ?(rd = 0) ?(rn = 0) operand =
  match operand with
  | None -> [ Word.of_int ((tag lsl 24) lor (rd lsl 16) lor (rn lsl 8)) ]
  | Some (Reg r) ->
      [ Word.of_int ((tag lsl 24) lor (rd lsl 16) lor (rn lsl 8) lor encode_reg r) ]
  | Some (Imm w) ->
      [ Word.of_int ((tag lsl 24) lor (rd lsl 16) lor (rn lsl 8) lor 0x80); w ]

let encode_insn i =
  let tag = tag_of_insn i in
  match i with
  | Mov (rd, op) | Mvn (rd, op) ->
      pack ~tag ~rd:(encode_reg rd) (Some op)
  | Add (rd, rn, op)
  | Sub (rd, rn, op)
  | Rsb (rd, rn, op)
  | And_ (rd, rn, op)
  | Orr (rd, rn, op)
  | Eor (rd, rn, op)
  | Bic (rd, rn, op)
  | Lsl (rd, rn, op)
  | Lsr (rd, rn, op)
  | Asr (rd, rn, op)
  | Ror (rd, rn, op)
  | Ldr (rd, rn, op)
  | Str (rd, rn, op) ->
      pack ~tag ~rd:(encode_reg rd) ~rn:(encode_reg rn) (Some op)
  | Mul (rd, rn, rm) ->
      pack ~tag ~rd:(encode_reg rd) ~rn:(encode_reg rn) (Some (Reg rm))
  | Cmp (rn, op) | Cmn (rn, op) | Tst (rn, op) ->
      pack ~tag ~rn:(encode_reg rn) (Some op)
  | Svc imm -> [ Word.of_int ((tag lsl 24) lor (Word.to_int imm land 0xFFFFFF)) ]
  | Nop | Udf -> pack ~tag None

let encode_fop = function
  | FI i -> encode_insn i
  | FJmp t -> [ Word.of_int ((tag_jmp lsl 24) lor (t land 0xFFFFF)) ]
  | FJcc (c, t) ->
      [ Word.of_int ((tag_jcc lsl 24) lor (encode_cond c lsl 20) lor (t land 0xFFFFF)) ]

let encode_flat (prog : fop array) : Word.t list =
  Array.to_list prog |> List.concat_map encode_fop

let encode_program stmts = encode_flat (flatten stmts)

(** Decode a word array back to a flat program; [None] on any malformed
    word (unknown opcode, bad register field, truncated immediate).
    Array-indexed so image fetch can decode straight out of a bulk page
    read without building a list. *)
let decode_flat_array (ws : Word.t array) : fop array option =
  let ( let* ) = Option.bind in
  let len = Array.length ws in
  let rec go acc j =
    if j >= len then Some (Array.of_list (List.rev acc))
    else
      let w = ws.(j) in
      let rest = j + 1 in
      let tag = Word.to_int (Word.extract w ~hi:31 ~lo:24) in
      if tag = tag_jmp then
        go (FJmp (Word.to_int (Word.extract w ~hi:19 ~lo:0)) :: acc) rest
      else if tag = tag_jcc then
        let* c = decode_cond (Word.to_int (Word.extract w ~hi:23 ~lo:20)) in
        go (FJcc (c, Word.to_int (Word.extract w ~hi:19 ~lo:0)) :: acc) rest
      else if tag = 0x13 then
        go (FI (Svc (Word.extract w ~hi:23 ~lo:0)) :: acc) rest
      else if tag = 0x14 then go (FI Nop :: acc) rest
      else if tag = 0x15 then go (FI Udf :: acc) rest
      else
        let rd = Word.to_int (Word.extract w ~hi:23 ~lo:16) in
        let rn = Word.to_int (Word.extract w ~hi:15 ~lo:8) in
        let is_imm = Word.bit w 7 in
        let rm = Word.to_int (Word.extract w ~hi:6 ~lo:0) in
        let op_and_rest =
          if is_imm then
            if rest >= len then None else Some (Imm ws.(rest), rest + 1)
          else
            let* r = decode_reg rm in
            Some (Reg r, rest)
        in
        let* operand, rest = op_and_rest in
          let two mk =
            let* rd = decode_reg rd in
            Some (mk rd operand)
          in
          let three mk =
            let* rd = decode_reg rd in
            let* rn = decode_reg rn in
            Some (mk rd rn operand)
          in
          let cmpish mk =
            let* rn = decode_reg rn in
            Some (mk rn operand)
          in
          let* i =
            match tag with
            | 0x01 -> two (fun rd op -> Mov (rd, op))
            | 0x02 -> two (fun rd op -> Mvn (rd, op))
            | 0x03 -> three (fun rd rn op -> Add (rd, rn, op))
            | 0x04 -> three (fun rd rn op -> Sub (rd, rn, op))
            | 0x05 -> three (fun rd rn op -> Rsb (rd, rn, op))
            | 0x06 -> (
                match operand with
                | Reg rm ->
                    let* rd = decode_reg rd in
                    let* rn = decode_reg rn in
                    Some (Mul (rd, rn, rm))
                | Imm _ -> None)
            | 0x07 -> three (fun rd rn op -> And_ (rd, rn, op))
            | 0x08 -> three (fun rd rn op -> Orr (rd, rn, op))
            | 0x09 -> three (fun rd rn op -> Eor (rd, rn, op))
            | 0x0A -> three (fun rd rn op -> Bic (rd, rn, op))
            | 0x0B -> three (fun rd rn op -> Lsl (rd, rn, op))
            | 0x0C -> three (fun rd rn op -> Lsr (rd, rn, op))
            | 0x0D -> three (fun rd rn op -> Asr (rd, rn, op))
            | 0x0E -> three (fun rd rn op -> Ror (rd, rn, op))
            | 0x0F -> cmpish (fun rn op -> Cmp (rn, op))
            | 0x16 -> cmpish (fun rn op -> Cmn (rn, op))
            | 0x10 -> cmpish (fun rn op -> Tst (rn, op))
            | 0x11 -> three (fun rd rn op -> Ldr (rd, rn, op))
            | 0x12 -> three (fun rd rn op -> Str (rd, rn, op))
            | _ -> None
          in
        go (FI i :: acc) rest
  in
  go [] 0

(** List-input variant of {!decode_flat_array}, kept for callers that
    hold encoded programs as lists. *)
let decode_flat (ws : Word.t list) : fop array option =
  decode_flat_array (Array.of_list ws)

let[@inline] insn_cost = function
  | Mul _ -> Cost.mul
  | Ldr _ | Str _ -> Cost.mem_access
  | Svc _ -> Cost.alu (* trap cost charged separately *)
  | _ -> Cost.alu

let[@inline] fop_cost = function FI i -> insn_cost i | FJmp _ | FJcc _ -> Cost.branch

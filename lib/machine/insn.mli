(** The modelled instruction set.

    Mirrors the paper's split (§5.1) between structured source programs
    and the assembly a trusted printer emits:

    - {!stmt} is the structured form programs are written in (the
      analogue of Vale procedures): straight-line instructions plus
      if/while with condition-code guards;
    - {!fop} is the flat form with explicit branch targets produced by
      {!flatten}; flat programs have a real program counter (an index),
      which is what gets banked into LR when an exception interrupts
      user code;
    - {!encode_flat}/{!decode_flat} give flat programs a word-level
      binary encoding, so enclave code lives in — and is measured as
      part of — ordinary data pages. *)

type cond = EQ | NE | CS | CC | MI | PL | HI | LS | GE | LT | GT | LE | AL

val equal_cond : cond -> cond -> bool
val compare_cond : cond -> cond -> int
val pp_cond : Format.formatter -> cond -> unit
val show_cond : cond -> string

type operand = Reg of Regs.reg | Imm of Word.t

val equal_operand : operand -> operand -> bool
val pp_operand : Format.formatter -> operand -> unit

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

val equal_insn : insn -> insn -> bool

type stmt =
  | I of insn
  | If of cond * stmt list * stmt list
  | While of cond * stmt list

val equal_stmt : stmt -> stmt -> bool

(** Flat micro-ops: straight-line instructions plus explicit branches
    whose targets are absolute indices into the flat program. *)
type fop = FI of insn | FJmp of int | FJcc of cond * int

val equal_fop : fop -> fop -> bool

val negate : cond -> cond
(** @raise Invalid_argument on [AL]. *)

val holds : cond -> Psr.t -> bool
(** Evaluate a condition against the NZCV flags. *)

val holds_nzcv : cond -> n:bool -> z:bool -> c:bool -> v:bool -> bool
(** {!holds} on flags held outside a {!Psr.t} (the interpreter keeps
    them in its burst state). *)

val flatten : stmt list -> fop array
(** Compile structured statements to flat form: [If] becomes a
    conditional branch over the then-block, [While] a backward loop. *)

val encode_flat : fop array -> Word.t list
val encode_program : stmt list -> Word.t list
(** [flatten] then [encode_flat]. *)

val decode_flat_array : Word.t array -> fop array option
(** [None] on any malformed word (unknown opcode, bad register field,
    truncated immediate): a guessed or corrupted code page never
    executes as garbage, it refuses to decode. Array-indexed so image
    fetch decodes straight from a bulk page read. *)

val decode_flat : Word.t list -> fop array option
(** List-input variant of {!decode_flat_array}. *)

val insn_cost : insn -> int
val fop_cost : fop -> int

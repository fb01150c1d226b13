(** 32-bit machine words.

    The ARMv7 model manipulates 32-bit words exclusively (the paper's
    machine state maps word-aligned addresses to 32-bit values, §5.1).
    Words are represented as OCaml [int]s masked to 32 bits, which is
    exact on a 64-bit host. All arithmetic wraps modulo 2^32. *)

type t = private int
(** A 32-bit word; the representation invariant is [0 <= w < 2^32]. *)

val zero : t
val one : t

val of_int : int -> t
(** [of_int n] truncates [n] to its low 32 bits (two's complement for
    negative arguments). *)

val to_int : t -> int
(** [to_int w] is the unsigned integer value of [w], in [0, 2^32). *)

val to_signed : t -> int
(** [to_signed w] interprets [w] as a two's-complement 32-bit integer. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

val udiv : t -> t -> t
(** Unsigned division. @raise Division_by_zero on zero divisor. *)

val urem : t -> t -> t
(** Unsigned remainder. @raise Division_by_zero on zero divisor. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
(** [shift_left w n] for [n >= 32] is [zero]. *)

val shift_right_logical : t -> int -> t
(** Logical (zero-filling) right shift; [n >= 32] gives [zero]. *)

val shift_right_arith : t -> int -> t
(** Arithmetic (sign-extending) right shift. *)

val rotate_right : t -> int -> t
(** Rotate right by [n mod 32] bits. *)

val bit : t -> int -> bool
(** [bit w i] is bit [i] (0 = least significant) of [w]. *)

val set_bit : t -> int -> bool -> t

val extract : t -> hi:int -> lo:int -> t
(** [extract w ~hi ~lo] is the bit-field [w\[hi:lo\]], right-aligned. *)

val insert : t -> hi:int -> lo:int -> t -> t
(** [insert w ~hi ~lo v] replaces the field [w\[hi:lo\]] with the low bits
    of [v]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned comparison. *)

val ult : t -> t -> bool
(** Unsigned less-than. *)

val ule : t -> t -> bool
val slt : t -> t -> bool
(** Signed less-than. *)

val is_aligned : t -> bool
(** Word (4-byte) alignment: the paper's memory model only admits aligned
    accesses, which keeps distinct addresses independent. *)

val align_down : t -> t
val word_size : int
(** Bytes per word (4). *)

val of_bytes_be : string -> int -> t
(** [of_bytes_be s off] reads 4 bytes big-endian at offset [off]. *)

val to_bytes_be : t -> string
(** 4-byte big-endian encoding. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering, e.g. [0xdeadbeef]. *)

val show : t -> string

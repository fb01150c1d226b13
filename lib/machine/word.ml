type t = int

let mask = 0xFFFF_FFFF
let zero = 0
let one = 1
let of_int n = n land mask
let to_int w = w

let to_signed w = if w land 0x8000_0000 <> 0 then w - 0x1_0000_0000 else w

let add a b = (a + b) land mask
let sub a b = (a - b) land mask
let mul a b = (a * b) land mask
let neg a = (-a) land mask
let udiv a b = a / b
let urem a b = a mod b
let logand a b = a land b
let logor a b = a lor b
let logxor a b = a lxor b
let lognot a = lnot a land mask

let shift_left w n = if n >= 32 then 0 else (w lsl n) land mask
let shift_right_logical w n = if n >= 32 then 0 else w lsr n

let shift_right_arith w n =
  if n >= 32 then if w land 0x8000_0000 <> 0 then mask else 0
  else (to_signed w asr n) land mask

let rotate_right w n =
  let n = n land 31 in
  if n = 0 then w else ((w lsr n) lor (w lsl (32 - n))) land mask

let bit w i = (w lsr i) land 1 = 1

let set_bit w i b = if b then w lor (1 lsl i) else w land lnot (1 lsl i) land mask

let extract w ~hi ~lo = (w lsr lo) land ((1 lsl (hi - lo + 1)) - 1)

let insert w ~hi ~lo v =
  let width = hi - lo + 1 in
  let field_mask = ((1 lsl width) - 1) lsl lo in
  (w land lnot field_mask land mask) lor ((v lsl lo) land field_mask)

let equal = Int.equal
let compare = Int.compare
let ult a b = a < b
let ule a b = a <= b
let slt a b = to_signed a < to_signed b

let word_size = 4
let is_aligned w = w land 3 = 0
let align_down w = w land lnot 3

let of_bytes_be s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let to_bytes_be w =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((w lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((w lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((w lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (w land 0xFF));
  Bytes.unsafe_to_string b

let pp fmt w = Format.fprintf fmt "0x%08x" w
let show w = Format.asprintf "%a" pp w

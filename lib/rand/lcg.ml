type t = { mutable s : int }

let mask = 0x3fffffff
let make seed = { s = seed land mask }

let next g =
  g.s <- ((g.s * 1103515245) + 12345) land mask;
  g.s

let below g n =
  let s = next g in
  if n <= 0 then 0 else s mod n

(* The host: wall clock, allocation counters and host speed. *)

let now = Unix.gettimeofday

(* Words this domain has allocated so far (minor plus direct-major);
   exact. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words allocated so far by every domain of the process. Other domains'
   counts reach [Gc.quick_stat] once per minor collection, so this is
   exact only to within a minor heap per domain. *)
let all_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

module Imap = Map.Make (Int)

(* Host time on a shared VM drifts: identical explore batches ranged from
   1.06 s to 2.26 s within minutes, in slow stretches that last tens of
   seconds and so move whole runs. [probe] is a fixed loop of the
   benchmark's own code that slows down with the host: small maps, a
   hash table, a byte buffer and MD5, and random reads of an 8 MB array
   (outside the OCaml heap, so [peak_heap_mb] does not see it).
   Over 170 explore batches its time had a correlation of 0.79 with the
   batch time, and rescaling by it cut the spread of 12-batch windows
   from 27% to 7%. It runs between batches, and host seconds are
   multiplied by [reference_probe_s / probe time]: figures are reported
   at the host speed where the loop takes 22 ms. The loop calls no
   program code, so a change to the program cannot move it. *)
let reference_probe_s = 0.022

let probe_array =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20) in
  Bigarray.Array1.fill a 1;
  a

let probe () =
  let t0 = now () in
  let h = Hashtbl.create 256 in
  let b = Bytes.make 16384 'x' in
  let acc = ref 0 and x = ref 12345 in
  for r = 0 to 39 do
    let m = ref Imap.empty in
    for i = 0 to 2047 do
      m := Imap.add (((i * 7919) + r) land 0xfff) i !m
    done;
    Imap.iter (fun k v -> Hashtbl.replace h (k land 0xff) (v + k)) !m;
    for i = 0 to Bytes.length b - 1 do
      Bytes.set b i (Char.chr ((i * r) land 0xff))
    done;
    acc := !acc + Hashtbl.length h + String.length (Digest.bytes b)
  done;
  for r = 0 to 19 do
    let m = ref Imap.empty in
    for i = 0 to 2047 do
      m := Imap.add (((i * 7919) + r) land 0xfff) i !m
    done;
    Imap.iter (fun k v -> acc := !acc + k + v) !m;
    for _ = 0 to 20_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      acc := !acc + Bigarray.Array1.unsafe_get probe_array (!x land 0xfffff)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* [f ()], its host seconds, and those seconds rescaled to the reference
   speed by the probes run just before and just after it. *)
let timed_scaled f =
  let p0 = probe () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let p1 = probe () in
  (r, dt, dt *. reference_probe_s /. ((p0 +. p1) /. 2.))

(** What the bench sections share: wallclock and model-cycle timing,
    the host-speed calibration that scales every wallclock floor, the
    count overrides of smoke runs, and running a campaign that must come
    back clean. *)

module Driver = Komodo_campaign.Driver
module Kinds = Komodo_campaign.Kinds
module Sha256 = Komodo_crypto.Sha256

(** [f ()] and the wallclock seconds it took. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(** [f os] and the model cycles it took. *)
let cycles_of f os =
  let c0 = Komodo_os.Os.cycles os in
  let os = f os in
  (Komodo_os.Os.cycles os - c0, os)

(* Seconds the calibration workload takes on the reference host
   (min-of-5 on the quiet container the floors were derived on). *)
let calib_nominal = 0.14

(** Seconds for 8 MB of SHA-256 through the string path, a code path
    whose cost per byte the memory refactor did not change. The minimum
    over a few trials estimates unloaded host speed even on a runner
    with bursty background load. Measured once per process. *)
let calibration =
  lazy
    (let s = String.make (1 lsl 20) 'x' in
     let best = ref infinity in
     for _ = 1 to 5 do
       let (), t =
         timed (fun () ->
             let c = ref Sha256.init in
             for _ = 1 to 8 do
               c := Sha256.absorb !c s
             done;
             ignore (Sha256.finalize !c))
       in
       if t < !best then best := t
     done;
     !best)

(** How much slower than the reference host this one is. A slower host
    relaxes wallclock floors proportionally (the code a floor was
    derived from would have slowed down just as much); capped at 4x so
    a broken calibration cannot disable a check. Faster hosts keep the
    nominal floors — the margin only grows there. *)
let host_scale () = min 4.0 (max 1.0 (Lazy.force calibration /. calib_nominal))

(** A nominal reference-host floor (a rate), scaled to this host. *)
let scaled floor = floor /. host_scale ()

(** The positive count in environment variable [var], if set; any
    other value is a usage error. *)
let env_count var =
  match Sys.getenv_opt var with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ ->
          Printf.eprintf "bench: bad %s %S\n%!" var s;
          exit 2)

(* The [komodo check] and [komodo fault] defaults, the latter over every
   fault class. *)
let check_config =
  { Kinds.Check.mutate = None; npages = 40; ops = 40; metrics = false; profile = false; clock = None }

let fault_config =
  {
    Kinds.Fault.npages = 40;
    ops = 40;
    faults = Komodo_fault.Drive.all_classes;
    bug = None;
    profile = false;
    clock = None;
  }

(** Run a campaign of kind [D] and return its outcome. A finding here is
    a correctness failure, not a slow benchmark: it is printed and the
    bench exits 1. *)
let campaign (type c o)
    (module D : Driver.DRIVER with type config = c and type outcome = o) ~jobs
    (config : c) ~trials ~seed : o =
  let module C = Driver.Make (D) in
  let o = C.run ~jobs config ~trials ~seed in
  match D.found o with
  | None -> o
  | Some (tseed, shrunk, v) ->
      Printf.printf "%s (trial seed %d, shrunk to %d %s):\n%s\n" D.messages.finding
        tseed (List.length shrunk) D.messages.steps (D.pp_violation v);
      exit 1

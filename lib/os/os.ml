(** The untrusted OS (kernel-driver model).

    Once Linux boots, a kernel driver issues SMCs to create and run
    enclaves (§8.1). This module is that driver: it owns the machine
    while in normal world, issues monitor calls through the real SMC
    trap path, and reads/writes insecure memory subject to the
    hardware's TrustZone filter — it *cannot* touch secure memory, and
    attempts to are blocked exactly as a TZASC would. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Mode = Komodo_machine.Mode
module Monitor = Komodo_core.Monitor
module Smc = Komodo_core.Smc
module Errors = Komodo_core.Errors
module Uexec = Komodo_core.Uexec
module Platform = Komodo_tz.Platform
module Boot = Komodo_tz.Boot

type t = {
  mon : Monitor.t;
  alloc : Alloc.t;
  exec : Uexec.t;
}

(** Insecure physical regions the OS uses by convention. *)
let staging_base = Word.of_int 0x1000_0000 (* MapSecure initial contents *)
let document_base = Word.of_int 0x0200_0000 (* large input buffers *)
let shared_base = Word.of_int 0x0300_0000 (* enclave <-> OS shared pages *)

let boot ?seed ?npages ?optimised ?sink ?spans
    ?(exec = Komodo_user.Verifier.executor ()) () =
  let plat =
    match npages with
    | None -> Platform.default
    | Some npages -> Platform.make ~npages ()
  in
  let b = Boot.boot ?seed ~plat () in
  let mon = Monitor.of_boot ?optimised ?sink ?spans b in
  { mon; alloc = Alloc.make ~npages:plat.Platform.npages; exec }

(** Raised when normal-world software touches TrustZone-protected
    memory: the hardware filter aborts the access. *)
exception Protected of Word.t

let check_accessible t pa =
  if not (Platform.normal_world_accessible t.mon.Monitor.plat pa) then
    raise (Protected pa)

(** OS store to physical memory (normal world, physical = its view). *)
let write_word t pa v =
  check_accessible t pa;
  { t with mon = { t.mon with Monitor.mach = State.store t.mon.Monitor.mach pa v } }

let read_word t pa =
  check_accessible t pa;
  State.load t.mon.Monitor.mach pa

let write_bytes t pa s =
  if String.length s mod 4 <> 0 then invalid_arg "Os.write_bytes: ragged length";
  check_accessible t pa;
  check_accessible t (Word.add pa (Word.of_int (String.length s - 4)));
  let mem = Memory.of_bytes_be t.mon.Monitor.mach.State.mem pa s in
  { t with mon = { t.mon with Monitor.mach = { t.mon.Monitor.mach with State.mem } } }

let read_bytes t pa n =
  check_accessible t pa;
  check_accessible t (Word.add pa (Word.of_int (((n + 3) / 4 * 4) - 4)));
  Memory.to_bytes_be t.mon.Monitor.mach.State.mem pa ((n + 3) / 4)

(** Issue a monitor call via the SMC trap. *)
let smc t ~call ~args =
  let mon, err, retval = Smc.invoke ~exec:t.exec t.mon ~call ~args in
  ({ t with mon }, err, retval)

let page_arg n = Word.of_int n

(* -- Typed wrappers for each monitor call ------------------------------- *)

let get_phys_pages t =
  let t, err, v = smc t ~call:Smc.sm_get_phys_pages ~args:[] in
  (t, err, Word.to_int v)

let init_addrspace t ~addrspace ~l1pt =
  let t, err, _ =
    smc t ~call:Smc.sm_init_addrspace ~args:[ page_arg addrspace; page_arg l1pt ]
  in
  (t, err)

let init_thread t ~addrspace ~thread ~entry =
  let t, err, _ =
    smc t ~call:Smc.sm_init_thread ~args:[ page_arg addrspace; page_arg thread; entry ]
  in
  (t, err)

let init_l2ptable t ~addrspace ~l2pt ~l1index =
  let t, err, _ =
    smc t ~call:Smc.sm_init_l2ptable
      ~args:[ page_arg addrspace; page_arg l2pt; Word.of_int l1index ]
  in
  (t, err)

let alloc_spare t ~addrspace ~spare =
  let t, err, _ =
    smc t ~call:Smc.sm_alloc_spare ~args:[ page_arg addrspace; page_arg spare ]
  in
  (t, err)

let map_secure t ~addrspace ~data ~mapping ~content =
  let t, err, _ =
    smc t ~call:Smc.sm_map_secure
      ~args:[ page_arg addrspace; page_arg data; Komodo_core.Mapping.encode mapping; content ]
  in
  (t, err)

let map_insecure t ~addrspace ~mapping ~target =
  let t, err, _ =
    smc t ~call:Smc.sm_map_insecure
      ~args:[ page_arg addrspace; Komodo_core.Mapping.encode mapping; target ]
  in
  (t, err)

let finalise t ~addrspace =
  let t, err, _ = smc t ~call:Smc.sm_finalise ~args:[ page_arg addrspace ] in
  (t, err)

let enter t ~thread ~args:(a1, a2, a3) =
  smc t ~call:Smc.sm_enter ~args:[ page_arg thread; a1; a2; a3 ]

let resume t ~thread = smc t ~call:Smc.sm_resume ~args:[ page_arg thread ]

let stop t ~addrspace =
  let t, err, _ = smc t ~call:Smc.sm_stop ~args:[ page_arg addrspace ] in
  (t, err)

let remove t ~page =
  let t, err, _ = smc t ~call:Smc.sm_remove ~args:[ page_arg page ] in
  (t, err)

let set_irq_budget budget t =
  let mach = { t.mon.Monitor.mach with State.irq_budget = budget } in
  { t with mon = { t.mon with Monitor.mach } }

(* About 19 ms at 900 MHz, far past any built-in program's run: where a
   thread that never exits (spin) is left Interrupted. *)
let max_run_cycles = 1 lsl 24

let run_thread ?budget t ~thread ~args =
  let set_budget t = if budget = None then t else set_irq_budget budget t in
  let c0 = Monitor.cycles t.mon in
  let rec go (t, err, v) =
    if Errors.equal err Errors.Interrupted && Monitor.cycles t.mon - c0 < max_run_cycles
    then go (resume (set_budget t) ~thread)
    else (t, err, v)
  in
  go (enter (set_budget t) ~thread ~args)

let cycles t = Monitor.cycles t.mon

(** The untrusted OS crashes and reboots while enclaves stay live: the
    secure world (monitor, PageDB, secure memory, entropy source)
    persists across a normal-world restart — that is the whole point of
    TrustZone isolation — but the normal world's working RAM comes back
    as junk and the driver's page-allocation bookkeeping is lost. The
    fault model's crash/restart class. [seed] makes the junk
    deterministic. *)
let crash_reboot ?(seed = 0) t =
  let junk seed n =
    let b = Bytes.create n in
    let g = Komodo_rand.Lcg.make (seed lxor 0x5eed1e55) in
    for i = 0 to n - 1 do
      Bytes.set b i (Char.chr (Komodo_rand.Lcg.next g land 0xff))
    done;
    Bytes.to_string b
  in
  let scrub t base len k = write_bytes t base (junk (seed + k) len) in
  let t = scrub t staging_base 0x4000 1 in
  let t = scrub t document_base 0x1000 2 in
  let t = scrub t shared_base 0x1000 3 in
  { t with alloc = Alloc.make ~npages:t.mon.Monitor.plat.Platform.npages }

(** Full teardown of an enclave: Stop, Remove every owned page, Remove
    the address-space page. Returns the first non-success error (the
    teardown keeps going so later removes still run) — the OS-side
    mirror of the paper's Figure 3 exit arc, and the tail of the
    lifecycle the telemetry audit log checks. *)
let teardown t ~addrspace =
  let worst = ref Errors.Success in
  let note e = if Errors.is_success !worst && not (Errors.is_success e) then worst := e in
  let t, e = stop t ~addrspace in
  note e;
  let owned = Komodo_core.Pagedb.owned_pages t.mon.Monitor.pagedb addrspace in
  let t =
    List.fold_left
      (fun t page ->
        let t, e = remove t ~page in
        note e;
        t)
      t owned
  in
  let t, e = remove t ~page:addrspace in
  note e;
  (* Teardown is a quiesce point: drain any buffered trace backend so
     the lifecycle tail is on disk even if the process exits next. *)
  Komodo_telemetry.Sink.flush t.mon.Monitor.sink;
  (t, !worst)

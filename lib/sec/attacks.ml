(** Attack scenarios: the concrete attacks the design defends against.

    Each scenario returns [`Defended] when the monitor (or the modelled
    hardware) blocks the attack, and a description of the leak
    otherwise. The list includes both the §9.1 war stories (bugs found
    in the unverified prototype only through specification work) and
    the architectural attacks of §2-§4. The test suite asserts every
    one of them is defended; the SGX baseline intentionally loses the
    controlled-channel scenario, reproducing the paper's contrast. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Ptable = Komodo_machine.Ptable
module Errors = Komodo_core.Errors
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Mapping = Komodo_core.Mapping
module Smc = Komodo_core.Smc
module Layout = Komodo_tz.Layout
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Progs = Komodo_user.Progs

type verdict = Defended | Leaked of string

let expect_err name want (err : Errors.t) =
  if Errors.equal err want then Defended
  else Leaked (Printf.sprintf "%s: expected %s, monitor said %s" name (Errors.show want) (Errors.show err))

let expect_fail name (err : Errors.t) =
  if Errors.is_success err then Leaked (name ^ ": call unexpectedly succeeded")
  else Defended

let fresh_os () = Os.boot ~seed:0xA77AC4 ~npages:32 ()

let load_basic os =
  let img = Image.program ~name:"basic" Progs.add_args in
  match Loader.load os img with
  | Ok r -> r
  | Error e -> failwith (Format.asprintf "load_basic: %a" Loader.pp_error e)

(** §9.1 bug 1: InitAddrspace with both arguments the same free page.
    The unverified prototype allocated the page twice. *)
let addrspace_page_aliasing () =
  let os = fresh_os () in
  let os, err = Os.init_addrspace os ~addrspace:5 ~l1pt:5 in
  match expect_fail "InitAddrspace(p, p)" err with
  | Leaked _ as l -> l
  | Defended ->
      (* And the PageDB must still be consistent. *)
      if
        Pagedb.wf os.Os.mon.Monitor.plat os.Os.mon.Monitor.mach.State.mem
          os.Os.mon.Monitor.pagedb
      then Defended
      else Leaked "InitAddrspace(p, p): PageDB invariants broken"

(** §9.1 bug 2: MapSecure whose "insecure" content address actually
    points at the monitor's own direct-mapped image — reading it would
    disclose monitor data into a measured enclave page (or conversely
    prove the check forgot the monitor's footprint). *)
let map_secure_from_monitor_image () =
  let os = fresh_os () in
  let os, err = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
  assert (Errors.is_success err);
  let os, err = Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0 in
  assert (Errors.is_success err);
  let _os, err =
    Os.map_secure os ~addrspace:0 ~data:3
      ~mapping:(Mapping.make ~va:Word.zero ~w:true ~x:false)
      ~content:Layout.monitor_image_base
  in
  expect_err "MapSecure(content = monitor image)" Errors.Invalid_arg err

(** Same, with the content address inside the secure region itself. *)
let map_secure_from_secure_region () =
  let os = fresh_os () in
  let os, err = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
  assert (Errors.is_success err);
  let os, err = Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0 in
  assert (Errors.is_success err);
  let _os, err =
    Os.map_secure os ~addrspace:0 ~data:3
      ~mapping:(Mapping.make ~va:Word.zero ~w:true ~x:false)
      ~content:(Layout.page_base 9)
  in
  expect_err "MapSecure(content = secure page)" Errors.Invalid_arg err

(** MapInsecure whose target is a secure page: would hand the enclave a
    window onto another enclave's memory as "shared insecure" space. *)
let map_insecure_of_secure_page () =
  let os = fresh_os () in
  let os, err = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
  assert (Errors.is_success err);
  let os, err = Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0 in
  assert (Errors.is_success err);
  let _os, err =
    Os.map_insecure os ~addrspace:0
      ~mapping:(Mapping.make ~va:Word.zero ~w:true ~x:false)
      ~target:(Layout.page_base 20)
  in
  expect_err "MapInsecure(target = secure page)" Errors.Invalid_arg err

(** Double mapping: the same free page as data in two enclaves. *)
let double_map_across_enclaves () =
  let os = fresh_os () in
  let build os asp l1 l2 =
    let os, e1 = Os.init_addrspace os ~addrspace:asp ~l1pt:l1 in
    let os, e2 = Os.init_l2ptable os ~addrspace:asp ~l2pt:l2 ~l1index:0 in
    assert (Errors.is_success e1 && Errors.is_success e2);
    os
  in
  let os = build os 0 1 2 in
  let os = build os 3 4 5 in
  let mapping = Mapping.make ~va:(Word.of_int 0x1000) ~w:true ~x:false in
  let os, err = Os.map_secure os ~addrspace:0 ~data:6 ~mapping ~content:Word.zero in
  assert (Errors.is_success err);
  let _os, err = Os.map_secure os ~addrspace:3 ~data:6 ~mapping ~content:Word.zero in
  expect_err "MapSecure(same page, second enclave)" Errors.Page_in_use err

(** Entering an enclave that was never finalised. *)
let enter_unfinalised () =
  let os = fresh_os () in
  let os, err = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
  assert (Errors.is_success err);
  let os, err = Os.init_thread os ~addrspace:0 ~thread:2 ~entry:Word.zero in
  assert (Errors.is_success err);
  let _os, err, _ = Os.enter os ~thread:2 ~args:(Word.zero, Word.zero, Word.zero) in
  expect_err "Enter(unfinalised)" Errors.Not_final err

(** Re-entering a suspended thread instead of resuming it would restart
    it with attacker-chosen arguments while its context is live. *)
let reenter_suspended_thread () =
  let os = Os.boot ~seed:0xA77AC4 ~npages:32 () in
  let img = Image.program ~name:"spin" Progs.spin_forever in
  match Loader.load os img with
  | Error e -> Leaked (Format.asprintf "spin load: %a" Loader.pp_error e)
  | Ok (os, h) -> (
      let th = List.hd h.Loader.threads in
      (* Give the spinner a small interrupt budget so it suspends. *)
      let os =
        {
          os with
          Os.mon =
            {
              os.Os.mon with
              Monitor.mach = { os.Os.mon.Monitor.mach with State.irq_budget = Some 50 };
            };
        }
      in
      let os, err, _ = Os.enter os ~thread:th ~args:(Word.zero, Word.zero, Word.zero) in
      match err with
      | Errors.Interrupted -> (
          let _os, err, _ = Os.enter os ~thread:th ~args:(Word.zero, Word.zero, Word.zero) in
          expect_err "Enter(suspended)" Errors.Already_entered err)
      | e -> Leaked ("spin enclave did not suspend: " ^ Errors.show e))

(** Resuming a thread that was never entered. *)
let resume_idle_thread () =
  let os = fresh_os () in
  let os, h = load_basic os in
  let _os, err, _ = Os.resume os ~thread:(List.hd h.Loader.threads) in
  expect_err "Resume(idle)" Errors.Not_entered err

(** Deallocating pages of a running (final, unstopped) enclave. *)
let remove_live_page () =
  let os = fresh_os () in
  let os, h = load_basic os in
  let _os, err = Os.remove os ~page:(List.hd h.Loader.data_pages) in
  expect_err "Remove(live data page)" Errors.Not_stopped err

(** Removing an address space that still owns pages. *)
let remove_referenced_addrspace () =
  let os = fresh_os () in
  let os, h = load_basic os in
  let os, err = Os.stop os ~addrspace:h.Loader.addrspace in
  assert (Errors.is_success err);
  let _os, err = Os.remove os ~page:h.Loader.addrspace in
  expect_err "Remove(addrspace with refs)" Errors.In_use err

(** Direct normal-world access to secure memory: blocked by the
    hardware filter, not the monitor. *)
let os_reads_secure_memory () =
  let os = fresh_os () in
  let os, _h = load_basic os in
  match Os.read_word os (Layout.page_base 2) with
  | _ -> Leaked "OS read a secure page through the TZASC"
  | exception Os.Protected _ -> Defended

let os_writes_secure_memory () =
  let os = fresh_os () in
  let os, _h = load_basic os in
  match Os.write_word os (Layout.page_base 2) (Word.of_int 0xEE1) with
  | _ -> Leaked "OS wrote a secure page through the TZASC"
  | exception Os.Protected _ -> Defended

(** Register-clearing discipline: after an SMC returns, no register
    beyond r0/r1 may carry monitor or enclave data. We enter a real
    enclave (which havocs its registers with secrets) and inspect every
    OS-visible register afterwards. *)
let register_leak_after_enter () =
  let os = fresh_os () in
  let os, h = load_basic os in
  (* Plant recognisable values in the OS's non-volatile registers
     (r5-r12; r0-r4 are the SMC call/argument registers). *)
  let plant i = Word.of_int (0x05a0 + i) in
  let mach =
    List.fold_left
      (fun m i -> State.write_reg m (Regs.R i) (plant i))
      os.Os.mon.Monitor.mach
      (List.init 8 (fun k -> k + 5))
  in
  let os = { os with Os.mon = { os.Os.mon with Monitor.mach = mach } } in
  let os, err, _ =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int 1, Word.of_int 2, Word.of_int 3)
  in
  if not (Errors.is_success err) then Leaked ("enter failed: " ^ Errors.show err)
  else begin
    let mach = os.Os.mon.Monitor.mach in
    let bad_nonvolatile =
      List.find_opt
        (fun i -> not (Word.equal (State.read_reg mach (Regs.R i)) (plant i)))
        (List.init 8 (fun k -> k + 5))
    in
    let r2 = State.read_reg mach (Regs.R 2) and r3 = State.read_reg mach (Regs.R 3) in
    match bad_nonvolatile with
    | Some i -> Leaked (Printf.sprintf "non-volatile r%d not preserved" i)
    | None ->
        if not (Word.equal r2 Word.zero && Word.equal r3 Word.zero) then
          Leaked "volatile r2/r3 not cleared on SMC return"
        else Defended
  end

(** Controlled channel (§2): the Komodo API gives the OS no way to
    revoke an enclave mapping or observe a faulting address — there is
    no call that unmaps a live enclave's page, and a fault returns only
    the bare [Fault] code. We check both facts. *)
let controlled_channel_immunity () =
  let os = Os.boot ~seed:0xA77AC4 ~npages:32 () in
  let img = Image.program ~name:"faulter" Progs.fault_unmapped in
  match Loader.load os img with
  | Error e -> Leaked (Format.asprintf "faulter load: %a" Loader.pp_error e)
  | Ok (os, h) ->
      let os, err, info =
        Os.enter os ~thread:(List.hd h.Loader.threads) ~args:(Word.zero, Word.zero, Word.zero)
      in
      if not (Errors.equal err Errors.Fault) then
        Leaked ("fault not reported as Fault: " ^ Errors.show err)
      else if not (Word.equal info Word.zero) then
        Leaked "fault leaked more than the exception type"
      else begin
        (* No API call can unmap a live enclave's data page: Remove is
           refused while the enclave runs, and there is no "unmap"
           SMC at all. *)
        let _os, err = Os.remove os ~page:(List.hd h.Loader.data_pages) in
        expect_err "Remove(live page) as PTE revocation" Errors.Not_stopped err
      end

(** The SGX baseline *does* lose the controlled-channel game: the OS
    recovers a victim's secret bits from its fault trace. Returns the
    recovered bits so tests can assert the contrast. *)
let sgx_controlled_channel_leak ~secret_bits =
  let sgx = Komodo_sgx.Lifecycle.make ~epc_size:16 in
  let sgx =
    match Komodo_sgx.Lifecycle.ecreate sgx ~secs:0 with Ok t -> t | Error _ -> assert false
  in
  let page_a = Word.of_int 0x10000 and page_b = Word.of_int 0x20000 in
  let recovered, _ =
    Komodo_sgx.Channel.infer_secret_bits sgx ~secs:0 ~page_a ~page_b
      ~accesses:secret_bits
  in
  recovered

(** An enclave tries to consume another enclave's spare page via the
    MapData SVC: cross-enclave theft of granted memory. *)
let map_foreign_spare () =
  let os = fresh_os () in
  (* Victim enclave with a spare page. *)
  let img = Image.program ~spares:1 ~name:"victim" Progs.add_args in
  match Loader.load os img with
  | Error e -> Leaked (Format.asprintf "victim load: %a" Loader.pp_error e)
  | Ok (os, victim) -> (
      let foreign_spare = List.hd victim.Loader.spares in
      (* Attacker enclave that tries MapData on that spare. *)
      let img2 = Image.program ~name:"thief" Progs.map_and_use_spare in
      match Loader.load os img2 with
      | Error e -> Leaked (Format.asprintf "thief load: %a" Loader.pp_error e)
      | Ok (os, thief_h) ->
          let _os, err, v =
            Os.enter os ~thread:(List.hd thief_h.Loader.threads)
              ~args:(Word.of_int foreign_spare, Word.of_int 0x3000, Word.zero)
          in
          if not (Errors.is_success err) then
            Leaked ("thief enclave did not run: " ^ Errors.show err)
          else if Word.to_int v = 0xBEEF then
            Leaked "enclave consumed another enclave's spare page"
          else Defended)

(** Entering a thread of a stopped enclave: execution after teardown
    began must be impossible. *)
let enter_stopped_enclave () =
  let os = fresh_os () in
  let os, h = load_basic os in
  let os, err = Os.stop os ~addrspace:h.Loader.addrspace in
  assert (Errors.is_success err);
  let _os, err, _ =
    Os.enter os ~thread:(List.hd h.Loader.threads) ~args:(Word.zero, Word.zero, Word.zero)
  in
  expect_err "Enter(stopped)" Errors.Not_final err

(** Measurement TOCTOU: the OS rewrites the staging buffer right after
    MapSecure. The measurement must reflect what was *copied*, not what
    the staging holds later — else the OS could attest one program and
    run another. *)
let measurement_toctou () =
  let os = fresh_os () in
  let os, err = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
  assert (Errors.is_success err);
  let os, err = Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0 in
  assert (Errors.is_success err);
  let honest = String.make 4096 'H' in
  let os = Os.write_bytes os Os.staging_base honest in
  let mapping = Mapping.make ~va:(Word.of_int 0x1000) ~w:true ~x:false in
  let os, err = Os.map_secure os ~addrspace:0 ~data:3 ~mapping ~content:Os.staging_base in
  assert (Errors.is_success err);
  (* The switcheroo. *)
  let os = Os.write_bytes os Os.staging_base (String.make 4096 'E') in
  let os, err = Os.finalise os ~addrspace:0 in
  assert (Errors.is_success err);
  let expected =
    Komodo_core.Measure.add_data_page Komodo_core.Measure.initial ~mapping ~contents:honest
    |> Komodo_core.Measure.finalise |> Komodo_core.Measure.digest |> Option.get
  in
  match Pagedb.get os.Os.mon.Monitor.pagedb 0 with
  | Pagedb.Addrspace a -> (
      match Komodo_core.Measure.digest a.Pagedb.measurement with
      | Some d when String.equal d expected -> Defended
      | Some _ -> Leaked "measurement tracked the staging buffer, not the copy"
      | None -> Leaked "no measurement")
  | _ -> Leaked "addrspace lost"

(** The attack scenarios above as raw SMC call shapes, for the
    refinement checker's adversarial generator: each is a short
    [(call, args)] sequence over scratch pages [base..base+3].
    [monitor_pa] / [secure_pa] are the §9.1 "insecure" content
    addresses that must be rejected. Mapping words pack a page-aligned
    VA with permission bits (read|write<<1|execute<<2). *)
let smc_shapes ~base ~monitor_pa ~secure_pa =
  let p i = base + i in
  let init_at l1index = [ (2, [ p 0; p 1 ]); (4, [ p 0; p 2; l1index ]) ] in
  [
    ("addrspace-page-aliasing", [ (2, [ p 0; p 0 ]) ]);
    ( "map-secure-from-monitor-image",
      init_at 0 @ [ (6, [ p 0; p 3; 0x1000 lor 1; monitor_pa ]) ] );
    ( "map-secure-from-secure-region",
      init_at 0 @ [ (6, [ p 0; p 3; 0x1000 lor 1; secure_pa ]) ] );
    ( "map-insecure-of-secure-page",
      init_at 0 @ [ (7, [ p 0; 0x2000 lor 3; secure_pa ]) ] );
    ( "double-map-same-va",
      init_at 0
      @ [ (6, [ p 0; p 3; 0x1000 lor 3; 0 ]); (6, [ p 0; p 3; 0x1000 lor 3; 0 ]) ]
    );
    ("enter-unfinalised", [ (2, [ p 0; p 1 ]); (3, [ p 0; p 2; 0 ]); (9, [ p 2; 0; 0; 0 ]) ]);
    ("remove-live-page", [ (2, [ p 0; p 1 ]); (12, [ p 1 ]) ]);
    ("remove-referenced-addrspace", [ (2, [ p 0; p 1 ]); (11, [ p 0 ]); (12, [ p 0 ]) ]);
  ]

let all_komodo =
  [
    ("addrspace-page-aliasing", addrspace_page_aliasing);
    ("map-secure-from-monitor-image", map_secure_from_monitor_image);
    ("map-secure-from-secure-region", map_secure_from_secure_region);
    ("map-insecure-of-secure-page", map_insecure_of_secure_page);
    ("double-map-across-enclaves", double_map_across_enclaves);
    ("enter-unfinalised", enter_unfinalised);
    ("reenter-suspended-thread", reenter_suspended_thread);
    ("resume-idle-thread", resume_idle_thread);
    ("remove-live-page", remove_live_page);
    ("remove-referenced-addrspace", remove_referenced_addrspace);
    ("os-reads-secure-memory", os_reads_secure_memory);
    ("os-writes-secure-memory", os_writes_secure_memory);
    ("register-leak-after-enter", register_leak_after_enter);
    ("controlled-channel-immunity", controlled_channel_immunity);
    ("map-foreign-spare", map_foreign_spare);
    ("enter-stopped-enclave", enter_stopped_enclave);
    ("measurement-toctou", measurement_toctou);
  ]

let suite ~seeds ~ops =
  let check seed what run =
    match run ~seed ~nops:ops with
    | None -> (Printf.sprintf "seed %3d: %s preserved (%d ops)" seed what ops, true)
    | Some f ->
        ( Format.asprintf "seed %3d: %s VIOLATED: %a" seed
            (String.uppercase_ascii what) Nonint.pp_failure f,
          false )
  in
  let attack (name, run) =
    match run () with
    | Defended -> (Printf.sprintf "attack defended: %s" name, true)
    | Leaked m -> (Printf.sprintf "ATTACK LEAKED: %s (%s)" name m, false)
  in
  let results =
    List.concat_map
      (fun seed ->
        [
          check seed "confidentiality" Nonint.run_confidentiality;
          check seed "integrity" Nonint.run_integrity;
        ])
      (List.init seeds succ)
    @ List.map attack all_komodo
  in
  let ok = List.for_all snd results in
  let pass = if ok then [ "all security checks passed" ] else [] in
  (List.map fst results @ pass, ok)

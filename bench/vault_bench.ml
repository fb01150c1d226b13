(** Sealed-storage vault: detection rates and seal/unseal cycle costs.

    Two sections in one table (mirrored to BENCH_vault.json):

    - {b detection}: a fixed-seed storage-fault campaign per class
      (tamper / replay / crash) plus the all-classes mix, reporting
      probe / detected / accepted counts. A clean campaign means every
      refusal was correct and every acceptance genuine — the campaign
      itself asserts the sealed-storage theorem after every fault, so
      the "rate" rows are exact by construction, not sampled.
    - {b cycles}: modelled cycle cost of one sealed-storage round trip
      (update, seal, unseal) measured on a live world, alongside the
      static AES/GHASH/HKDF cost model the enclave charges.

    Campaign reports are asserted identical at -j 1 and -j 2 on the
    same root seed, extending the engine's determinism contract to the
    vault campaign. *)

module Word = Komodo_machine.Word
module Os = Komodo_os.Os
module Errors = Komodo_core.Errors
module Vault = Komodo_user.Vault
module Vaultdrive = Komodo_fault.Vaultdrive
module Kinds = Komodo_campaign.Kinds

let trials = 40
let seed = 42

(* The [komodo vault] defaults over the given storage-fault classes. *)
let campaign ~jobs ~classes =
  Runner.campaign (module Kinds.Vault) ~jobs
    { Kinds.Vault.npages = 48; ops = 24; classes; bug = None }
    ~trials ~seed

(* One update/seal/unseal round trip on a live world, in model cycles.
   The unseal presents exactly the blob the vault just emitted, so the
   verdict must be accept. *)
let cycle_costs () =
  let os, thread = Vaultdrive.boot_vault ~seed ~npages:48 ~bug:None in
  let enter os args =
    let c0 = Os.cycles os in
    let os, err, ret = Os.enter os ~thread ~args in
    if not (Errors.is_success err) then
      failwith (Format.asprintf "vault bench enter: %a" Errors.pp err);
    (os, ret, Os.cycles os - c0)
  in
  let os, _, update_cycles =
    enter os (Word.of_int Vault.cmd_update, Word.of_int 3, Word.of_int 0xbeef)
  in
  let os, _, seal_cycles =
    enter os (Word.of_int Vault.cmd_seal, Word.zero, Word.zero)
  in
  let blob = Os.read_bytes os Vaultdrive.vault_out Vault.blob_bytes in
  let os = Os.write_bytes os Vaultdrive.vault_in blob in
  (* Seal above took NV = 0 and sealed epoch 1; the trusted counter is
     now 1, which is what unseal must be told. *)
  let _os, verdict, unseal_cycles =
    enter os (Word.of_int Vault.cmd_unseal, Word.of_int 1, Word.zero)
  in
  assert (Word.to_int verdict = Vault.verdict_accept);
  (update_cycles, seal_cycles, unseal_cycles)

let run () =
  Report.print_header "Sealed storage (vault campaign + cycle model)";
  let mix =
    [
      ("tamper", [ Vaultdrive.S_tamper ]);
      ("replay", [ Vaultdrive.S_replay ]);
      ("crash", [ Vaultdrive.S_crash ]);
      ("all", Vaultdrive.all_classes);
    ]
  in
  let outcomes =
    List.map (fun (name, classes) -> (name, campaign ~jobs:1 ~classes)) mix
  in
  (* Determinism: the all-classes report must be identical at -j 2. *)
  let o1 = List.assoc "all" outcomes in
  let o2 = campaign ~jobs:2 ~classes:Vaultdrive.all_classes in
  assert (o1 = o2);
  let update_cycles, seal_cycles, unseal_cycles = cycle_costs () in
  (* AAD = label (20) ‖ magic (4) ‖ epoch (4) = 28 bytes; derivation is
     charged once, at init, not per seal. *)
  let model = Vault.seal_cycles ~aad:28 ~len:Vault.state_bytes in
  let detection_rows =
    List.concat_map
      (fun (name, o) ->
        [
          [
            Printf.sprintf "%s: probes (detected/accepted)" name;
            (let s = o.Vaultdrive.stats in
             Printf.sprintf "%d (%d/%d)" s.probes s.detected s.accepted);
          ];
        ])
      outcomes
  in
  Report.print_table ~json_name:"vault"
    ~columns:[ "metric"; "value" ]
    ([
       [ "trials per class"; string_of_int trials ];
       [ "campaign seed"; string_of_int seed ];
     ]
    @ detection_rows
    @ [
        [ "silent corruptions accepted"; "0 (asserted per probe)" ];
        [ "false unseals"; "0 (asserted per probe)" ];
        [ "reports identical at -j 1 vs -j 2"; "yes (asserted)" ];
        [ "update cycles"; string_of_int update_cycles ];
        [ "seal cycles"; string_of_int seal_cycles ];
        [ "unseal (accept) cycles"; string_of_int unseal_cycles ];
        [ "AEAD model floor per seal (cycles)"; string_of_int model ];
        [ "one-time key derivation (cycles)"; string_of_int Vault.derive_cycles ];
      ]);
  Printf.printf
    "\nvault campaign: %d probes across %d trials, zero silent acceptances\n"
    o1.Vaultdrive.stats.probes (4 * trials)

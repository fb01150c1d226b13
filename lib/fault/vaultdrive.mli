(** Storage fault campaigns over the sealed-storage vault.

    Each trial boots the platform, loads the vault enclave, and runs
    a seeded sequence of vault operations (update / seal / probe)
    interleaved with storage faults drawn from three classes:

    - {b tamper}: bit flips, block swaps (reordering), truncation,
      and full wipes of the OS's block device;
    - {b replay}: rollback of the whole sealed blob to a stale
      generation, and partial (torn) rollbacks of single blocks;
    - {b crash}: OS crash-reboots (disk and enclave survive) and full
      platform reboots (only the disk and the trusted NV counter
      survive), including back-to-back crash storms.

    After {e every} injected fault the driver presents the disk's
    contents to the vault and judges the verdict against
    {!Komodo_spec.Sealspec} — the theorem that sealed data unseals
    only as the latest genuine blob under the live NV counter, stale
    replays are reported stale, and everything else is reported
    tampered. Any mismatch is a violation; violations shrink greedily
    and serialise to JSONL replay traces, exactly like {!Drive}. *)

module Vault = Komodo_user.Vault

type storage_class = S_tamper | S_replay | S_crash

val class_name : storage_class -> string
val all_classes : storage_class list
val class_of_string : string -> storage_class option

val vault_in : Komodo_machine.Word.t
(** Physical base of the OS->vault input window. *)

val vault_out : Komodo_machine.Word.t
(** Physical base of the vault->OS output window. *)

val boot_vault :
  seed:int -> npages:int -> bug:Vault.bug option -> Komodo_os.Os.t * int
(** Boot the platform, load the vault enclave, run its init command;
    returns the OS and the vault's thread page. Raises [Failure] on
    setup errors (harness bugs, not theorem violations). Exposed for
    the bench harness and tests. *)

type sop =
  | V_update of { index : int; value : int }
  | V_seal
  | V_probe
  | A_tamper of { block : int; byte : int; bit : int }
  | A_rollback of { block : int; depth : int }
  | A_rollback_blob of { depth : int }
  | A_swap of { a : int; b : int }
  | A_truncate of { keep : int }
  | A_wipe
  | V_crash_os of { seed : int }
  | V_reboot

val pp_sop : sop -> string

type violation = { index : int; sop : sop; reason : string }

val pp_violation : violation -> string

type stats = {
  sops_run : int;
  probes : int;  (** unseal checks performed *)
  detected : int;  (** correctly refused (tampered or stale) *)
  accepted : int;  (** correctly accepted *)
}

val run_sops :
  ?bug:Vault.bug -> ?npages:int -> seed:int -> sop list -> (stats, violation) result
(** Deterministic: rebuilds the whole world from [seed] each call. *)

val gen_sops : classes:storage_class list -> seed:int -> n:int -> sop list

val check_pages : int -> (int, string) result
(** The vault image's page need..[Platform.max_pages]: the campaign's
    page bound, enforced on its config and trace header. *)

type trial = {
  t_stats : stats;  (** a violating trial counts only its pre-violation sops *)
  t_classes : (string * int) list;
  t_violation : violation option;
}

val run_trial :
  ?npages:int ->
  ?ops_per_trial:int ->
  ?bug:Vault.bug ->
  classes:storage_class list ->
  seed:int ->
  unit ->
  trial

type outcome = {
  trials_run : int;
  stats : stats;  (** trials [0..k] merged *)
  violation : (int * sop list * violation) option;
}

(** {2 Replay traces} (JSONL, like {!Drive}'s) *)

type header = { h_seed : int; h_npages : int; h_bug : Vault.bug option }

val trace_lines :
  seed:int -> npages:int -> bug:Vault.bug option -> sop list -> string list

val trace_parse : string list -> (header * sop list, string) result
val replay : header -> sop list -> (stats, violation) result

(** Sample bytecode enclave programs.

    Small programs in the modelled instruction set, used by the
    quickstart example, the execution tests, and the CLI. Each is a
    structured program ready for {!Uprog.code_words}. *)

module Insn = Komodo_machine.Insn

val add_args : Insn.stmt list
(** Exit with a1 + a2 + a3 (entry arguments arrive in r0-r2). *)

val sum_to_n : Insn.stmt list
(** Exit with the sum 1..r0 (a loop). *)

val store_load : Insn.stmt list
(** Store r1 at the VA in r0, read it back, exit with it. *)

val checksum : Insn.stmt list
(** Sum r1 words at VA r0 — e.g. over a mapped insecure buffer. *)

val svc_probe : Insn.stmt list
(** Issue one SVC (call in entry r0, arguments in r1/r2), then exit
    with the SVC's r0 error code — the refinement checker's probe
    enclave, making SVC error semantics observable at the SMC
    boundary. *)

val random_word : Insn.stmt list
(** One GetRandom SVC; exit with the word. *)

val attest_zero : Insn.stmt list
(** Attest to 32 zero bytes; exit with the first MAC word. *)

val fault_unmapped : Insn.stmt list
(** Dereference an unmapped address (data-abort path). *)

val fault_undefined : Insn.stmt list
(** Execute an undefined instruction. *)

val spin_forever : Insn.stmt list
(** Loop until interrupted (suspend/resume path). *)

val publish_to_shared : Insn.stmt list
(** Write r1 to the shared page at VA r0 — the only legitimate
    enclave-to-OS channel. *)

val map_and_use_spare : Insn.stmt list
(** MapData the spare in r0 at the VA in r1, store/load a sentinel,
    exit with it (0xBEEF on success, 0xDEAD on failure). *)

(** Dispatcher-interface programs (paper §9.2, implemented). *)

val self_paging_main : Insn.stmt list
val self_paging_dispatcher : Insn.stmt list

val futile_dispatcher : Insn.stmt list
(** Resumes without fixing anything: the double-fault path. *)

(** Demand paging with eviction: a 4-page working set on one physical
    frame, evictions enciphered into an insecure swap window. *)

val selfpager_disp_va : int
val selfpager_book : int
val selfpager_swap : int
val selfpager_heap : int
val selfpager_key : int
val selfpager_dispatcher : Insn.stmt list

val selfpager_main : Insn.stmt list
(** Expected exit value: 0xA0+0xA1+0xA2+0xA3 = 0x286. *)

(** Attack scenarios the design defends against.

    Each returns [Defended] when the monitor (or modelled hardware)
    blocks the attack. The list covers the §9.1 war stories (bugs found
    in the paper's unverified prototype only through specification
    work), the lifecycle attacks of §2-§4, direct secure-memory access,
    register-hygiene leaks, and the controlled channel — which the SGX
    baseline intentionally loses, reproducing the paper's contrast. *)

type verdict = Defended | Leaked of string

val addrspace_page_aliasing : unit -> verdict
(** §9.1 bug 1: [InitAddrspace(p, p)]. *)

val map_secure_from_monitor_image : unit -> verdict
(** §9.1 bug 2: "insecure" content address inside the monitor image. *)

val map_secure_from_secure_region : unit -> verdict
val map_insecure_of_secure_page : unit -> verdict
val double_map_across_enclaves : unit -> verdict
val enter_unfinalised : unit -> verdict
val reenter_suspended_thread : unit -> verdict
val resume_idle_thread : unit -> verdict
val remove_live_page : unit -> verdict
val remove_referenced_addrspace : unit -> verdict
val os_reads_secure_memory : unit -> verdict
val os_writes_secure_memory : unit -> verdict

val register_leak_after_enter : unit -> verdict
(** §5.2 register discipline: nothing beyond r0/r1 reaches the OS. *)

val controlled_channel_immunity : unit -> verdict
(** §2/§3.1: the OS can neither induce enclave faults nor learn more
    than the bare [Fault] code. *)

val map_foreign_spare : unit -> verdict
(** An enclave tries to consume another enclave's spare via MapData. *)

val enter_stopped_enclave : unit -> verdict

val measurement_toctou : unit -> verdict
(** The OS rewrites the staging buffer after MapSecure; the measurement
    must reflect the copied contents. *)

val sgx_controlled_channel_leak : secret_bits:bool list -> bool list
(** The same game against the SGX baseline: returns the bits the OS
    recovers from the fault trace (all of them). *)

val all_komodo : (string * (unit -> verdict)) list

val suite : seeds:int -> ops:int -> string list * bool
(** The security suite at one scale: {!Nonint}'s confidentiality and
    integrity runs for seeds [1..seeds], [ops] adversarial ops each,
    then every attack in {!all_komodo}. One report line per check, in
    that order, then a pass line if all held; [false] when any failed. *)

val smc_shapes :
  base:int -> monitor_pa:int -> secure_pa:int -> (string * (int * int list) list) list
(** The attack scenarios as raw SMC [(call, args)] shapes over scratch
    pages [base..base+3], for the refinement checker's adversarial
    generator ({!Komodo_spec.Diff}); [monitor_pa]/[secure_pa] are the
    §9.1 content addresses MapSecure must reject. *)

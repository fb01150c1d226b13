(** The abstract monitor: one pure transition function per SMC and SVC
    of Table 1, written from the paper's semantics (§4, Figure 3, §9.1,
    §9.2) over {!Astate} — never from the implementation's machine
    state.

    Everything deterministic is predicted exactly, including the error
    code of every failing precondition and its priority over later
    checks. The one nondeterministic point is what a *running* enclave
    does during Enter/Resume: enclave code and registers are opaque
    secrets, so the spec returns a {!pending} obligation that the
    caller resolves with the observed outcome — which must be one of
    Success (SvcExit), Interrupted, or Fault; any other error code is a
    refinement violation. A probe thread (whose program is known to the
    checker: issue one SVC, exit with its error code) is predicted
    exactly instead, making every SVC's error semantics checkable at
    the SMC boundary. *)

(** Error codes, restated from Table 1 / the Komodo sources as the
    words the OS sees in r0. *)

val e_success : int
val e_invalid_pageno : int
val e_page_in_use : int
val e_invalid_addrspace : int
val e_already_final : int
val e_not_final : int
val e_invalid_mapping : int
val e_addr_in_use : int
val e_not_stopped : int
val e_interrupted : int
val e_fault : int
val e_already_entered : int
val e_not_entered : int
val e_invalid_thread : int
val e_pages_exhausted : int
val e_in_use : int
val e_invalid_arg : int
val e_entropy_exhausted : int

val err_name : int -> string

(** SMC call numbers (r0 at SMC entry). *)

val smc_get_phys_pages : int
val smc_init_addrspace : int
val smc_init_thread : int
val smc_init_l2ptable : int
val smc_alloc_spare : int
val smc_map_secure : int
val smc_map_insecure : int
val smc_finalise : int
val smc_enter : int
val smc_resume : int
val smc_stop : int
val smc_remove : int
val smc_name : int -> string

(** SVC call numbers (r0 at SVC). *)

val svc_exit : int
val svc_get_random : int
val svc_attest : int
val svc_verify : int
val svc_init_l2ptable : int
val svc_map_data : int
val svc_unmap_data : int
val svc_set_dispatcher : int
val svc_resume_faulted : int
val svc_name : int -> string

(** Deliberately-wrong variants of the spec, used by the checker's
    self-test: each resurrects a §9.1-style bug, and the differential
    driver must catch and shrink the resulting divergence. *)
type mutation =
  | No_alias_check
      (** accept [InitAddrspace(p, p)] — §9.1 war story 1 *)
  | No_monitor_image_check
      (** skip the MapSecure content validity check entirely, accepting
          in particular the monitor's own image — §9.1 war story 2 *)
  | Drop_refcount
      (** forget to count threads against the addrspace refcount *)

val mutation_of_string : string -> mutation option
val mutation_name : mutation -> string
val mutations : mutation list

exception Stuck of string
(** The spec cannot make sense of its own state (e.g. a first-level
    slot points at a page the spec does not consider a second-level
    table). Reported as a divergence, never swallowed. *)

(** An Enter/Resume whose preconditions the spec has validated, waiting
    for the observed outcome of opaque enclave execution. *)
type pending = { th : int; asp : int; resume : bool }

type result =
  | Done of Astate.t * int * int
      (** new state, error word (r0), return value (r1) *)
  | Pending of pending

val step_smc :
  ?mutate:mutation ->
  ?rng_exhausted:bool ->
  Astate.t ->
  probe:(Astate.t -> int -> bool) ->
  contents:string option ->
  call:int ->
  args:int list ->
  result
(** One SMC transition. [args] are the words in r1-r4 (missing ones read
    as zero, as the trap path zeroes unused argument registers).
    [contents] is the oracle for MapSecure initial contents: the staged
    insecure page's bytes at call time ([None] degrades the measurement
    transcript to opaque). [probe] decides whether a thread page is a
    live probe thread whose execution is predicted exactly.
    [rng_exhausted] is the entropy oracle: when true, a probe GetRandom
    is predicted to fail with {!e_entropy_exhausted} (the fault model's
    drained hardware source). *)

val resolve : Astate.t -> pending -> outcome:[ `Exit | `Interrupted | `Fault ] -> Astate.t
(** Apply the observed outcome of an opaque enclave run to the spec
    state (Figure 3: running -> final / suspended / faulted). *)

val allowed_outcome : int -> [ `Exit | `Interrupted | `Fault ] option
(** Classify an observed Enter/Resume error word; [None] means the word
    is not a legal outcome of enclave execution. *)

(** What the spec says of an SMC observed to return error word [err]
    and return value [ret]. *)
type observed =
  | Refines of Astate.t * pending option
      (** the new spec state, plus the enclave run resolved from [err]
          when the call was an opaque Enter/Resume *)
  | Wrong_err of int  (** the spec's error word *)
  | Wrong_ret of int  (** the spec's return value *)
  | Illegal_outcome  (** [err] is no legal outcome of an opaque enclave run *)
  | Spec_stuck of string  (** {!Stuck}, raised stepping or resolving *)

val observe :
  ?mutate:mutation -> ?rng_exhausted:bool -> Astate.t ->
  probe:(Astate.t -> int -> bool) -> contents:string option ->
  call:int -> args:int list -> err:int -> ret:int -> observed
(** The one refinement step for an observed call, used by the
    differential checker, the trace replay and the linearisability
    search: {!step_smc} compared with the observation, or {!resolve}d
    with it. *)

val step_svc :
  ?mutate:mutation ->
  ?rng_exhausted:bool ->
  Astate.t ->
  asp:int ->
  thread:int ->
  call:int ->
  a1:int ->
  a2:int ->
  Astate.t * int
(** One SVC transition for an enclave of [asp] running thread [thread]:
    call in the enclave's r0, arguments r1/r2; returns the new state and
    the error word the enclave sees in r0. [svc_exit] and
    [svc_resume_faulted] are control flow, not SVCs — they never reach
    this function. *)

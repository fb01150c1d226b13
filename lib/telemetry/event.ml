(** Typed trace events.

    Every observable step of the monitor — SMC and SVC entry/exit, the
    exception ending each burst of user execution, PageDB type changes,
    and enclave lifecycle milestones — is one of these constructors,
    stamped with the monitor's modelled cycle counter. The layer is
    deliberately *below* the monitor: events carry only integers and
    strings (call numbers, error codes, page-type names), so the core
    library can depend on telemetry without a cycle.

    The event stream is exactly the paper's evaluation surface (§8,
    Table 3 / Figure 5): per-call latencies come from entry/exit cycle
    deltas, and the enclave lifecycle breakdown is the ordered
    [Enclave_lifecycle] / [Page_transition] subsequence — which the
    spec replay ([Komodo_spec.Trace_check]) checks for orderliness. *)

type lifecycle_stage = Ls_init | Ls_finalise | Ls_enter | Ls_resume | Ls_stop | Ls_remove

let stage_name = function
  | Ls_init -> "init"
  | Ls_finalise -> "finalise"
  | Ls_enter -> "enter"
  | Ls_resume -> "resume"
  | Ls_stop -> "stop"
  | Ls_remove -> "remove"

let stage_of_name = function
  | "init" -> Some Ls_init
  | "finalise" -> Some Ls_finalise
  | "enter" -> Some Ls_enter
  | "resume" -> Some Ls_resume
  | "stop" -> Some Ls_stop
  | "remove" -> Some Ls_remove
  | _ -> None

type t =
  | Smc_entry of { call : int; name : string; args : int list }
  | Smc_exit of { call : int; name : string; err : int; err_name : string; retval : int; cycles : int }
      (** [cycles] is the handler's cycle cost (exit stamp − entry stamp). *)
  | Svc_entry of { call : int; name : string }
  | Svc_exit of { call : int; name : string; err : int; err_name : string; cycles : int }
  | Exception of { kind : string }
      (** The exception ending a burst of user execution:
          ["svc"], ["irq"], ["fiq"], or ["fault:<class>"]. *)
  | Page_transition of { page : int; from_type : string; to_type : string }
      (** A PageDB retyping (e.g. free → addrspace, datapage → free). *)
  | Enclave_lifecycle of { addrspace : int; stage : lifecycle_stage }
  | Fault_injected of { point : string; action : string }
      (** The fault injector acted: [point] names the injection point
          (e.g. ["commit:smc:6"], ["insn:12"]), [action] the fault
          (["irq"], ["mem_write:0x..."], ["rng_exhaust"], ...). *)

(** An event stamped with the monitor's cycle counter at emission. *)
type stamped = { at : int; ev : t }

let equal (a : t) (b : t) = a = b
let equal_stamped (a : stamped) (b : stamped) = a = b

let kind_name = function
  | Smc_entry _ -> "smc_entry"
  | Smc_exit _ -> "smc_exit"
  | Svc_entry _ -> "svc_entry"
  | Svc_exit _ -> "svc_exit"
  | Exception _ -> "exception"
  | Page_transition _ -> "page_transition"
  | Enclave_lifecycle _ -> "enclave_lifecycle"
  | Fault_injected _ -> "fault_injected"

let pp fmt = function
  | Smc_entry { name; args; _ } ->
      Format.fprintf fmt "SMC %s(%s)" name
        (String.concat ", " (List.map (Printf.sprintf "0x%x") args))
  | Smc_exit { name; err_name; retval; cycles; _ } ->
      Format.fprintf fmt "SMC %s -> %s, 0x%x (%d cycles)" name err_name retval cycles
  | Svc_entry { name; _ } -> Format.fprintf fmt "SVC %s" name
  | Svc_exit { name; err_name; cycles; _ } ->
      Format.fprintf fmt "SVC %s -> %s (%d cycles)" name err_name cycles
  | Exception { kind } -> Format.fprintf fmt "exception %s" kind
  | Page_transition { page; from_type; to_type } ->
      Format.fprintf fmt "page %d: %s -> %s" page from_type to_type
  | Enclave_lifecycle { addrspace; stage } ->
      Format.fprintf fmt "enclave %d: %s" addrspace (stage_name stage)
  | Fault_injected { point; action } ->
      Format.fprintf fmt "fault injected at %s: %s" point action

let pp_stamped fmt { at; ev } = Format.fprintf fmt "@[[%8d] %a@]" at pp ev

(* -- JSON (one object per event; a trace file is JSONL) ----------------- *)

let to_json { at; ev } =
  let base kind rest = Json.Obj (("at", Json.Int at) :: ("kind", Json.Str kind) :: rest) in
  match ev with
  | Smc_entry { call; name; args } ->
      base "smc_entry"
        [
          ("call", Json.Int call);
          ("name", Json.Str name);
          ("args", Json.List (List.map (fun a -> Json.Int a) args));
        ]
  | Smc_exit { call; name; err; err_name; retval; cycles } ->
      base "smc_exit"
        [
          ("call", Json.Int call);
          ("name", Json.Str name);
          ("err", Json.Int err);
          ("err_name", Json.Str err_name);
          ("retval", Json.Int retval);
          ("cycles", Json.Int cycles);
        ]
  | Svc_entry { call; name } ->
      base "svc_entry" [ ("call", Json.Int call); ("name", Json.Str name) ]
  | Svc_exit { call; name; err; err_name; cycles } ->
      base "svc_exit"
        [
          ("call", Json.Int call);
          ("name", Json.Str name);
          ("err", Json.Int err);
          ("err_name", Json.Str err_name);
          ("cycles", Json.Int cycles);
        ]
  | Exception { kind } -> base "exception" [ ("exn", Json.Str kind) ]
  | Page_transition { page; from_type; to_type } ->
      base "page_transition"
        [
          ("page", Json.Int page);
          ("from", Json.Str from_type);
          ("to", Json.Str to_type);
        ]
  | Enclave_lifecycle { addrspace; stage } ->
      base "enclave_lifecycle"
        [ ("addrspace", Json.Int addrspace); ("stage", Json.Str (stage_name stage)) ]
  | Fault_injected { point; action } ->
      base "fault_injected" [ ("point", Json.Str point); ("action", Json.Str action) ]

let of_json j =
  let open Tracefile in
  let int k = int_field k j and str k = str_field k j in
  let* at = int "at" in
  let* kind = str "kind" in
  let ok ev = Ok { at; ev } in
  match kind with
  | "smc_entry" ->
      let* call = int "call" in
      let* name = str "name" in
      let* args = int_list "args" j in
      ok (Smc_entry { call; name; args })
  | "smc_exit" ->
      let* call = int "call" in
      let* name = str "name" in
      let* err = int "err" in
      let* err_name = str "err_name" in
      let* retval = int "retval" in
      let* cycles = int "cycles" in
      ok (Smc_exit { call; name; err; err_name; retval; cycles })
  | "svc_entry" ->
      let* call = int "call" in
      let* name = str "name" in
      ok (Svc_entry { call; name })
  | "svc_exit" ->
      let* call = int "call" in
      let* name = str "name" in
      let* err = int "err" in
      let* err_name = str "err_name" in
      let* cycles = int "cycles" in
      ok (Svc_exit { call; name; err; err_name; cycles })
  | "exception" ->
      let* kind = str "exn" in
      ok (Exception { kind })
  | "page_transition" ->
      let* page = int "page" in
      let* from_type = str "from" in
      let* to_type = str "to" in
      ok (Page_transition { page; from_type; to_type })
  | "enclave_lifecycle" ->
      let* addrspace = int "addrspace" in
      let* stage_s = str "stage" in
      let* stage = req ("stage " ^ stage_s) (stage_of_name stage_s) in
      ok (Enclave_lifecycle { addrspace; stage })
  | "fault_injected" ->
      let* point = str "point" in
      let* action = str "action" in
      ok (Fault_injected { point; action })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

let to_jsonl_line ev = Json.to_string (to_json ev)

(** Parse a whole JSONL trace, skipping blank lines. *)
let parse_trace s = Tracefile.parse_body of_json (String.split_on_char '\n' s)

module Event = Komodo_telemetry.Event
module Imap = Map.Make (Int)

type report = {
  events : int;
  calls : int;
  violations : (int * string) list;
}

let tname = function
  | Astate.Afree -> "free"
  | Astate.Aaddrspace _ -> "addrspace"
  | Astate.Athread _ -> "thread"
  | Astate.Al1 _ -> "l1ptable"
  | Astate.Al2 _ -> "l2ptable"
  | Astate.Adata _ -> "datapage"
  | Astate.Aspare _ -> "sparepage"

let in_range spec p = p >= 0 && p < spec.Astate.plat.Astate.npages

(* Transitions the spec predicts for a deterministic call: page numbers
   whose type name changed. *)
let spec_transitions before after =
  let n = before.Astate.plat.Astate.npages in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let f = tname (Astate.get before i) and t = tname (Astate.get after i) in
      go (i + 1) (if f = t then acc else (i, f, t) :: acc)
  in
  go 0 []

type st = {
  spec : Astate.t;
  pending : (int * string * int list) option;
      (** Smc_entry (call, name, args) awaiting its exit *)
  trans : (int * string * string) list;  (** transitions since that entry *)
  calls : int;
  prev_at : int;  (** the last cycle stamp *)
  violations : (int * string) list;
}

let violation st i msg = { st with violations = (i, msg) :: st.violations }

(* A page's type at this point of the trace: the spec's type before the
   open call, updated by the retypings observed since its entry. *)
let current_type st page =
  List.fold_left
    (fun ty (p, _, t) -> if p = page then t else ty)
    (tname (Astate.get st.spec page))
    st.trans

(* A lifecycle milestone must come from the call that makes it: inside
   an open SMC of the matching call on the same address space (Enter
   and Resume name one of its threads). Whether the call was legal in
   that state is the spec's error-word check. *)
let lifecycle_error st asp stage =
  let is_asp p = p = asp
  and has_thread p = in_range st.spec p && Astate.owner_of (Astate.get st.spec p) = Some asp in
  let call, names =
    match stage with
    | Event.Ls_init -> (Aspec.smc_init_addrspace, is_asp)
    | Event.Ls_finalise -> (Aspec.smc_finalise, is_asp)
    | Event.Ls_enter -> (Aspec.smc_enter, has_thread)
    | Event.Ls_resume -> (Aspec.smc_resume, has_thread)
    | Event.Ls_stop -> (Aspec.smc_stop, is_asp)
    | Event.Ls_remove -> (Aspec.smc_remove, is_asp)
  in
  let what = Printf.sprintf "addrspace %d %s milestone" asp (Event.stage_name stage) in
  match st.pending with
  | None -> Some (what ^ " outside any SMC")
  | Some (c, _, p :: _) when c = call && names p -> None
  | Some (_, name, _) -> Some (Printf.sprintf "%s inside SMC %s of another call or page" what name)

let check_transitions st i spec' observed =
  let expected = spec_transitions st.spec spec' in
  let show (p, f, t) = Printf.sprintf "page %d: %s -> %s" p f t in
  let missing = List.filter (fun tr -> not (List.mem tr observed)) expected in
  let surplus = List.filter (fun tr -> not (List.mem tr expected)) observed in
  let st =
    if missing = [] then st
    else
      violation st i
        ("spec retypes not in trace: " ^ String.concat "; " (List.map show missing))
  in
  if surplus = [] then st
  else
    violation st i
      ("trace retypes the spec does not predict: "
      ^ String.concat "; " (List.map show surplus))

(* Retypings observed during opaque enclave execution: the enclave may
   only reshape its own pages among spare/data/second-level table. *)
let apply_enclave_transitions st i asp spec =
  List.fold_left
    (fun (st, spec) (pg, _, to_t) ->
      let owned = in_range spec pg && Astate.owner_of (Astate.get spec pg) = Some asp in
      if not owned then
        ( violation st i
            (Printf.sprintf
               "enclave run retyped page %d, which addrspace %d does not own" pg asp),
          spec )
      else
        match to_t with
        | "sparepage" -> (st, Astate.set spec pg (Astate.Aspare { asp }))
        | "datapage" -> (st, Astate.set spec pg (Astate.Adata { asp }))
        | "l2ptable" ->
            (st, Astate.set spec pg (Astate.Al2 { asp; slots = Imap.empty }))
        | t ->
            ( violation st i
                (Printf.sprintf "enclave run retyped page %d to %s: outside its authority"
                   pg t),
              spec ))
    (st, spec) st.trans

let step st i (ev : Event.t) =
  let inside what st =
    if st.pending = None then violation st i (what ^ " outside any SMC") else st
  in
  match ev with
  | Event.Smc_entry { call; name; args } ->
      let st =
        match st.pending with
        | Some (_, open_name, _) ->
            violation st i
              (Printf.sprintf "SMC %s begins inside unfinished SMC %s" name open_name)
        | None -> st
      in
      { st with pending = Some (call, name, args); trans = [] }
  | Event.Svc_entry { name; _ } | Event.Svc_exit { name; _ } -> inside ("SVC " ^ name) st
  | Event.Exception _ -> inside "user exception" st
  | Event.Enclave_lifecycle { addrspace = p; _ } | Event.Page_transition { page = p; _ }
    when not (in_range st.spec p) ->
      violation st i (Printf.sprintf "page %d out of range" p)
  | Event.Enclave_lifecycle { addrspace; stage } ->
      Option.fold ~none:st ~some:(violation st i) (lifecycle_error st addrspace stage)
  | Event.Page_transition { page; from_type; to_type } ->
      let cur = current_type st page in
      let st =
        if cur = from_type then st
        else
          violation st i
            (Printf.sprintf "page %d retyped %s -> %s but its type is %s" page from_type
               to_type cur)
      in
      let st = inside "page_transition" st in
      { st with trans = st.trans @ [ (page, from_type, to_type) ] }
  | Event.Smc_exit { call; err; retval; _ } -> (
      match st.pending with
      | None -> violation st i "smc_exit without smc_entry"
      | Some (ecall, _, args) ->
          let st = { st with pending = None; calls = st.calls + 1 } in
          if ecall <> call then
            violation st i
              (Printf.sprintf "smc_exit call %d does not match entry %d" call ecall)
          else begin
            let probe _ _ = false in
            match Aspec.step_smc st.spec ~probe ~contents:None ~call ~args with
            | exception Aspec.Stuck msg -> violation st i ("spec stuck: " ^ msg)
            | Aspec.Done (spec', serr, sret) ->
                if serr <> err then
                  violation st i
                    (Printf.sprintf "error word: spec %s (%d), trace %s (%d)"
                       (Aspec.err_name serr) serr (Aspec.err_name err) err)
                else if sret <> retval then
                  violation st i
                    (Printf.sprintf "return value: spec 0x%x, trace 0x%x" sret retval)
                else
                  let st = check_transitions st i spec' st.trans in
                  { st with spec = spec' }
            | Aspec.Pending p -> (
                match Aspec.allowed_outcome err with
                | None ->
                    violation st i
                      (Printf.sprintf
                         "%s returned %s (%d): not a legal enclave outcome"
                         (Aspec.smc_name call) (Aspec.err_name err) err)
                | Some outcome ->
                    let spec' = Aspec.resolve st.spec p ~outcome in
                    let st, spec' = apply_enclave_transitions st i p.Aspec.asp spec' in
                    { st with spec = spec' })
          end)
  | Event.Fault_injected _ ->
      (* Injected faults are environment actions, not monitor steps. *)
      st

let replay ~npages (events : Event.stamped list) =
  let st0 =
    {
      spec = Astate.boot (Abs.plat ~npages);
      pending = None;
      trans = [];
      calls = 0;
      prev_at = min_int;
      violations = [];
    }
  in
  let st, n =
    List.fold_left
      (fun (st, i) { Event.at; ev } ->
        let st =
          if at < st.prev_at then
            violation st i (Printf.sprintf "cycle stamp %d regresses below %d" at st.prev_at)
          else st
        in
        (step { st with prev_at = at } i ev, i + 1))
      (st0, 0) events
  in
  let st =
    match st.pending with
    | Some (_, name, _) -> violation st n ("trace ends inside SMC " ^ name)
    | None -> st
  in
  { events = n; calls = st.calls; violations = List.rev st.violations }

let render r =
  let head =
    Printf.sprintf "replayed %d events (%d monitor calls) against the spec" r.events r.calls
  in
  if r.violations = [] then [ head; "trace refines the spec" ]
  else
    head
    :: List.map (fun (i, msg) -> Printf.sprintf "event %d: VIOLATION: %s" i msg) r.violations

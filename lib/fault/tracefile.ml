(* The JSONL replay-trace framing shared by the fault, vault and smp
   campaigns: a header object led by the kind's magic key
   ([komodo_<kind>_trace], set to 1) and then one JSON object per op.
   The magic key is the kind tag, so each kind rejects the others'
   traces. *)

module Json = Komodo_telemetry.Json

let ( let* ) = Result.bind
let req what = function Some v -> Ok v | None -> Error ("missing/ill-typed " ^ what)
let int_field name j = req name (Option.bind (Json.member name j) Json.to_int_opt)

(* [f] over a list in order; the first error wins. *)
let all f xs =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) xs
  |> Result.map List.rev

let int_list name j =
  let* items = req name (Option.bind (Json.member name j) Json.to_list_opt) in
  all (fun a -> req "arg" (Json.to_int_opt a)) items

let ints xs = Json.List (List.map (fun a -> Json.Int a) xs)
let bug_json name = function None -> Json.Null | Some b -> Json.Str (name b)

let bug_field of_string h =
  match Json.member "bug" h with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) -> (
      match of_string s with Some b -> Ok (Some b) | None -> Error ("unknown bug " ^ s))
  | Some _ -> Error "bad bug field"

let magic kind = Printf.sprintf "komodo_%s_trace" kind

let lines ~kind header op_json ops =
  Json.to_string (Json.Obj ((magic kind, Json.Int 1) :: header))
  :: List.map (fun o -> Json.to_string (op_json o)) ops

let parse ~kind ~header ~op lines =
  match List.filter (fun l -> String.trim l <> "") lines with
  | [] -> Error "empty trace"
  | hline :: rest ->
      let* h = Result.map_error (fun e -> "header: " ^ e) (Json.parse hline) in
      let* () =
        match Json.member (magic kind) h with
        | Some (Json.Int 1) -> Ok ()
        | _ -> Error (Printf.sprintf "not a komodo %s trace (bad or missing magic)" kind)
      in
      let* header = header h in
      let* ops =
        all
          (fun line ->
            let* j = Result.map_error (fun e -> "op: " ^ e) (Json.parse line) in
            op j)
          rest
      in
      Ok (header, ops)

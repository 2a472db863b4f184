let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let require_number ctx key obj =
  match Option.bind (Json.member key obj) Json.to_number with
  | Some f when Float.is_finite f -> Ok f
  | Some _ -> Error (Printf.sprintf "%s: %S is not finite" ctx key)
  | None -> Error (Printf.sprintf "%s: missing numeric field %S" ctx key)

let require_string ctx key obj =
  match Json.member key obj with
  | Some (Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "%s: missing string field %S" ctx key)

let require_obj ctx key obj =
  match Json.member key obj with
  | Some (Json.Obj _ as o) -> Ok o
  | _ -> Error (Printf.sprintf "%s: missing object field %S" ctx key)

let check_version version json =
  let* schema = require_string "top-level" "schema" json in
  if schema = version then Ok ()
  else Error (Printf.sprintf "schema %S, expected %S" schema version)

let require_list key json =
  match Json.member key json with
  | Some (Json.List []) -> Error (key ^ ": empty")
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing %s array" key)

let fold_indexed f init l =
  let rec go i acc = function
    | [] -> Ok acc
    | x :: rest ->
        let* acc = f i acc x in
        go (i + 1) acc rest
  in
  go 0 init l

let validate_file validate path =
  let* json = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  validate json

let write_file ?validate path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  match Option.map (fun v -> validate_file v path) validate with
  | None | Some (Ok ()) -> ()
  | Some (Error msg) -> failwith (Printf.sprintf "write_file %s: %s" path msg)

type latency = {
  p50_us : float;
  p99_us : float;
  p9999_us : float;
  mean_us : float;
  max_us : float;
}

let latency_json l =
  Json.Obj
    [
      ("p50", Json.Float l.p50_us);
      ("p99", Json.Float l.p99_us);
      ("p99.99", Json.Float l.p9999_us);
      ("mean", Json.Float l.mean_us);
      ("max", Json.Float l.max_us);
    ]

let require_latency ctx key obj =
  let* l = require_obj ctx key obj in
  let ctx = ctx ^ "." ^ key in
  let* p50 = require_number ctx "p50" l in
  let* p99 = require_number ctx "p99" l in
  let* p9999 = require_number ctx "p99.99" l in
  let* _ = require_number ctx "mean" l in
  let* mx = require_number ctx "max" l in
  if p50 < 0.0 || p99 < p50 -. 1e-9 || p9999 < p99 -. 1e-9 || mx < p9999 -. 1e-9
  then Error (ctx ^ ": percentiles not monotone")
  else Ok ()

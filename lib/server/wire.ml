(* Wire protocol of the query daemon: request decoding/validation,
   reply rendering, and the compute-method dispatch.  See wire.mli and
   docs/SERVER.md. *)

type error_code = Bad_request | Overloaded | Timeout | Internal | Shutting_down

let code_string = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Internal -> "internal"
  | Shutting_down -> "shutting_down"

(* Inverse of [code_string], for the fleet router mapping a backend's
   error reply onto its own. *)
let code_of_string = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "timeout" -> Some Timeout
  | "internal" -> Some Internal
  | "shutting_down" -> Some Shutting_down
  | _ -> None

type request = {
  id : Jsonl.t;
  meth : string;
  params : Jsonl.t;
  deadline_ms : int option;
}

(* ---- decoding ---- *)

let decode_request line =
  match Jsonl.of_string line with
  | Error msg -> Error (Jsonl.Null, "invalid JSON: " ^ msg)
  | Ok json -> (
      let id =
        match Jsonl.member "id" json with
        | Some (Jsonl.Int _ as id) | Some (Jsonl.String _ as id) -> id
        | Some _ | None -> Jsonl.Null
      in
      match json with
      | Jsonl.Obj _ -> (
          match Jsonl.member "method" json with
          | Some (Jsonl.String meth) -> (
              let params =
                match Jsonl.member "params" json with
                | None | Some Jsonl.Null -> Ok (Jsonl.Obj [])
                | Some (Jsonl.Obj _ as p) -> Ok p
                | Some _ -> Error "\"params\" must be an object"
              in
              let deadline =
                match Jsonl.member "deadline_ms" json with
                | None | Some Jsonl.Null -> Ok None
                | Some (Jsonl.Int n) when n > 0 -> Ok (Some n)
                | Some _ -> Error "\"deadline_ms\" must be a positive integer"
              in
              match (params, deadline) with
              | Ok params, Ok deadline_ms -> Ok { id; meth; params; deadline_ms }
              | Error msg, _ | _, Error msg -> Error (id, msg))
          | Some _ -> Error (id, "\"method\" must be a string")
          | None -> Error (id, "missing \"method\""))
      | _ -> Error (Jsonl.Null, "request must be a JSON object"))

(* ---- replies ---- *)

let ok_reply ~id result =
  Jsonl.to_string
    (Jsonl.Obj [ ("id", id); ("ok", Jsonl.Bool true); ("result", result) ])

let error_reply ~id code message =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("id", id);
         ("ok", Jsonl.Bool false);
         ( "error",
           Jsonl.Obj
             [
               ("code", Jsonl.String (code_string code));
               ("message", Jsonl.String message);
             ] );
       ])

let params_digest params = Digest.to_hex (Digest.string (Jsonl.to_string params))

(* The fleet routing key: a digest every front computes identically
   for semantically identical requests, whatever the client's field
   order.  Top-level param keys are sorted before rendering; [id] and
   [deadline_ms] are deliberately excluded (they vary per call without
   changing what is computed). *)
let canonical_digest ~meth params =
  let params =
    match params with
    | Jsonl.Obj fields ->
        Jsonl.Obj
          (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)
    | other -> other
  in
  Digest.to_hex (Digest.string (meth ^ "\n" ^ Jsonl.to_string params))

(* ---- parameter extraction ---- *)

let ( let* ) = Result.bind

let str_param ?default name p =
  match Jsonl.member name p with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing parameter %S" name))
  | Some (Jsonl.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "parameter %S must be a string" name)

let int_param ~min ~max ~default name p =
  match Jsonl.member name p with
  | None -> Ok default
  | Some (Jsonl.Int n) when n >= min && n <= max -> Ok n
  | Some (Jsonl.Int n) ->
      Error
        (Printf.sprintf "parameter %S out of range: %d not in [%d, %d]" name n
           min max)
  | Some _ -> Error (Printf.sprintf "parameter %S must be an integer" name)

let bool_param ~default name p =
  match Jsonl.member name p with
  | None -> Ok default
  | Some (Jsonl.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "parameter %S must be a boolean" name)

(* Fractions arrive as "n/d" strings (matching the CLI's --eps) or as
   plain integers. *)
let frac_param ~default name p =
  let bad = Printf.sprintf "parameter %S must be an integer or \"n/d\"" name in
  match Jsonl.member name p with
  | None -> Ok default
  | Some (Jsonl.Int n) -> Ok (Frac.of_int n)
  | Some (Jsonl.String s) -> (
      match String.split_on_char '/' s with
      | [ n ] -> (
          match int_of_string_opt n with
          | Some n -> Ok (Frac.of_int n)
          | None -> Error bad)
      | [ n; d ] -> (
          match (int_of_string_opt n, int_of_string_opt d) with
          | Some n, Some d when d <> 0 -> Ok (Frac.make n d)
          | _ -> Error bad)
      | _ -> Error bad)
  | Some _ -> Error bad

(* The model field accepts a built-in name or a model-algebra term
   (docs/MODELS.md).  A malformed term is a [Bad_request] with the
   parser's message — the connection stays open. *)
type model_spec = Builtin of Model.t | Term of Algebra.t

let model_param p =
  let* name = str_param ~default:"immediate" "model" p in
  match Model.of_string name with
  | Some m -> Ok (Builtin m)
  | None -> (
      match Algebra.parse name with
      | Ok t -> Ok (Term t)
      | Error msg ->
          Error
            (Printf.sprintf
               "bad model %S: %s (built-ins: collect, snapshot, immediate; \
                algebra terms per docs/MODELS.md)"
               name msg))

let model_spec_name ~tas = function
  | _ when tas -> "iis+test&set"
  | Builtin m -> Model.name m
  | Term t -> Algebra.to_string t

(* Algebra terms in the model field of [equiv]'s lhs/rhs params. *)
let term_param name p =
  let* s = str_param name p in
  match Algebra.parse s with
  | Ok t -> Ok t
  | Error msg -> Error (Printf.sprintf "parameter %S: %s" name msg)

(* The CLI's task vocabulary (bin/main.ml task_of), with server-side
   sanity bounds: queries outside them are rejected as bad_request
   rather than occupying a worker for unbounded time. *)
let task_of_params p =
  let* name = str_param ~default:"consensus" "task" p in
  let* n = int_param ~min:1 ~max:4 ~default:3 "n" p in
  let* m = int_param ~min:1 ~max:16 ~default:4 "m" p in
  let* eps = frac_param ~default:(Frac.make 1 4) "eps" p in
  let* task =
    match name with
    | "consensus" -> Ok (Consensus.binary ~n)
    | "relaxed-consensus" ->
        Ok (Consensus.relaxed ~n ~values:[ Value.Int 0; Value.Int 1 ])
    | "aa" -> Ok (Approx_agreement.task ~n ~m ~eps)
    | "liberal-aa" -> Ok (Approx_agreement.liberal ~n ~m ~eps)
    | "2set" ->
        Ok
          (Set_agreement.task ~n ~k:2
             ~values:[ Value.Int 0; Value.Int 1; Value.Int 2 ])
    | other ->
        Error
          (Printf.sprintf
             "unknown task %S (try consensus, relaxed-consensus, aa, \
              liberal-aa, 2set)"
             other)
  in
  Ok (task, n)

(* ---- compute methods ---- *)

let solvable ~should_stop p =
  let* task, n = task_of_params p in
  let* rounds = int_param ~min:0 ~max:4 ~default:1 "rounds" p in
  let* tas = bool_param ~default:false "tas" p in
  let* binary_inputs = bool_param ~default:false "binary_inputs" p in
  let* model = model_param p in
  let inputs =
    if binary_inputs then
      Some (Complex.all_simplices (Approx_agreement.binary_input_complex ~n))
    else None
  in
  let verdict =
    if tas then
      Solvability.task_in_augmented ~should_stop ?inputs
        ~box:Black_box.test_and_set
        ~alpha:(Augmented.alpha_const Value.Unit)
        task ~rounds
    else
      match model with
      | Builtin m -> Solvability.task_in_model ~should_stop ?inputs m task ~rounds
      | Term t ->
          let inputs =
            match inputs with
            | Some i -> i
            | None -> Task.input_simplices task
          in
          Solvability.decide ~should_stop ~inputs
            ~protocol:(fun sigma -> Algebra.protocol_complex t sigma rounds)
            ~delta:(Task.delta task) ()
  in
  Ok
    (Jsonl.Obj
       [
         ("task", Jsonl.String task.Task.name);
         ("model", Jsonl.String (model_spec_name ~tas model));
         ("rounds", Jsonl.Int rounds);
         ( "verdict",
           Jsonl.String
             (match verdict with
             | Solvability.Solvable _ -> "solvable"
             | Solvability.Unsolvable -> "unsolvable"
             | Solvability.Undecided -> "undecided") );
       ])

let closure ~should_stop p =
  let* task, _n = task_of_params p in
  let* tas = bool_param ~default:false "tas" p in
  let* model = model_param p in
  let op =
    if tas then Round_op.test_and_set
    else
      match model with
      | Builtin m -> Round_op.plain m
      | Term t -> Round_op.algebra t
  in
  let inputs = Task.input_simplices task in
  let rows =
    List.map
      (fun sigma ->
        let d' = Closure.delta ~should_stop ~op task sigma in
        let d = Task.delta task sigma in
        let fixed = Complex.equal d' d in
        ( fixed,
          Jsonl.Obj
            [
              ("sigma", Jsonl.String (Format.asprintf "%a" Simplex.pp sigma));
              ("delta_facets", Jsonl.Int (Complex.facet_count d));
              ("closure_facets", Jsonl.Int (Complex.facet_count d'));
              ("fixed", Jsonl.Bool fixed);
            ] ))
      inputs
  in
  Ok
    (Jsonl.Obj
       [
         ("task", Jsonl.String task.Task.name);
         ("op", Jsonl.String (Round_op.name op));
         ("inputs", Jsonl.Int (List.length inputs));
         ("fixed_point", Jsonl.Bool (List.for_all fst rows));
         ("per_sigma", Jsonl.List (List.map snd rows));
       ])

let experiment p =
  let* id = str_param "id" p in
  match Suite.find id with
  | None -> Error (Printf.sprintf "unknown experiment %S (see 'speedup list')" id)
  | Some e ->
      let tables = e.Suite.run () in
      let rendered =
        String.concat "\n"
          (List.map (fun t -> Format.asprintf "%a" Report.pp t) tables)
      in
      Ok
        (Jsonl.Obj
           [
             ("id", Jsonl.String id);
             ("description", Jsonl.String e.Suite.description);
             ("tables", Jsonl.Int (List.length tables));
             ("all_ok", Jsonl.Bool (Suite.all_ok tables));
             ("rendered", Jsonl.String rendered);
           ])

let complex_stats p =
  let* model = model_param p in
  let* n = int_param ~min:1 ~max:4 ~default:3 "n" p in
  let* rounds = int_param ~min:0 ~max:3 ~default:1 "rounds" p in
  let* tas = bool_param ~default:false "tas" p in
  let sigma =
    Simplex.of_list (List.init n (fun i -> (i + 1, Value.Int (i + 1))))
  in
  let c =
    if tas then
      Augmented.protocol_complex ~box:Black_box.test_and_set
        ~alpha:(Augmented.alpha_const Value.Unit)
        sigma rounds
    else
      match model with
      | Builtin m -> Model.protocol_complex m sigma rounds
      | Term t -> Algebra.protocol_complex t sigma rounds
  in
  Ok
    (Jsonl.Obj
       [
         ("model", Jsonl.String (model_spec_name ~tas model));
         ("n", Jsonl.Int n);
         ("rounds", Jsonl.Int rounds);
         ("dim", Jsonl.Int (Complex.dim c));
         ("facets", Jsonl.Int (Complex.facet_count c));
         ("vertices", Jsonl.Int (Complex.vertex_count c));
         ("simplices", Jsonl.Int (Complex.simplex_count c));
       ])

let equiv ~should_stop p =
  let* lhs = term_param "lhs" p in
  let* rhs = term_param "rhs" p in
  let* n = int_param ~min:1 ~max:3 ~default:2 "n" p in
  let outcome = Equiv.decide ~should_stop ~n lhs rhs in
  Ok
    (Jsonl.Obj
       [
         ("lhs", Jsonl.String (Algebra.to_string lhs));
         ("rhs", Jsonl.String (Algebra.to_string rhs));
         ("n", Jsonl.Int n);
         ("equivalent", Jsonl.Bool outcome.Equiv.equivalent);
         ( "probes",
           Jsonl.List
             (List.map
                (fun (pr : Equiv.probe) ->
                  Jsonl.Obj
                    [
                      ("probe", Jsonl.String pr.Equiv.label);
                      ("lhs", Jsonl.String pr.Equiv.lhs);
                      ("rhs", Jsonl.String pr.Equiv.rhs);
                      ( "agree",
                        Jsonl.Bool (String.equal pr.Equiv.lhs pr.Equiv.rhs) );
                    ])
                outcome.Equiv.probes) );
       ])

(* ---- replication methods (docs/FLEET.md) ----

   [cert-pull] serves a store entry by digest; a miss is a normal
   [found=false] reply, never an error, so a pulling peer can fall
   through to enumeration.  [cert-push] installs a pushed entry through
   [Cert_sync.install] — re-derived content address, full re-verify —
   and reports a rejection in the reply body (the push was delivered;
   what this node thinks of the bytes is its own accounting). *)

let cert_pull p =
  let* key = str_param "key" p in
  match Cert_sync.export key with
  | Ok text ->
      Ok (Jsonl.Obj [ ("found", Jsonl.Bool true); ("cert", Jsonl.String text) ])
  | Error _ -> Ok (Jsonl.Obj [ ("found", Jsonl.Bool false) ])

let cert_push p =
  let* key = str_param "key" p in
  let* text = str_param "cert" p in
  if not (Cert_store.enabled ()) then
    Ok
      (Jsonl.Obj
         [
           ("installed", Jsonl.Bool false);
           ("reason", Jsonl.String "store disabled");
         ])
  else
    match Cert_sync.install ~key text with
    | Ok cert ->
        Ok
          (Jsonl.Obj
             [
               ("installed", Jsonl.Bool true);
               ("kind", Jsonl.String (Cert.kind_name cert));
             ])
    | Error msg ->
        Ok
          (Jsonl.Obj
             [ ("installed", Jsonl.Bool false); ("reason", Jsonl.String msg) ])

let compute ~should_stop req =
  let dispatch () =
    match req.meth with
    | "solvable" -> solvable ~should_stop req.params
    | "closure" -> closure ~should_stop req.params
    | "equiv" -> equiv ~should_stop req.params
    | "experiment" -> experiment req.params
    | "complex-stats" -> complex_stats req.params
    | "cert-pull" -> cert_pull req.params
    | "cert-push" -> cert_push req.params
    | other ->
        Error
          (Printf.sprintf
             "unknown method %S (try ping, stats, solvable, closure, equiv, \
              experiment, complex-stats, cert-pull, cert-push, shutdown)"
             other)
  in
  if should_stop () then Error (Timeout, "deadline exceeded before execution")
  else
    match dispatch () with
    | Ok v -> Ok v
    | Error msg -> Error (Bad_request, msg)
    | exception Csp.Interrupted -> Error (Timeout, "deadline exceeded")
    | exception Closure.Undecided_local_task _ ->
        Error (Internal, "Closure: local task solvability undecided (node limit)")
    | exception Failure msg -> Error (Internal, msg)
    | exception Invalid_argument msg -> Error (Internal, msg)

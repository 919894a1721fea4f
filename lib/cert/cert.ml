module Sexp = Cert_sexp
module Codec = Cert_codec
module Store = Cert_store
open Cert_sexp

let version = "speedup-cert/1"

type membership = {
  op_name : string;
  task_name : string;
  sigma : Simplex.t;
  tau : Simplex.t;
  member : bool;
  witness : Simplicial_map.t option;
}

type enumeration = {
  op_name : string;
  task_name : string;
  sigma : Simplex.t;
  members : (Simplex.t * Simplicial_map.t option) list;
}

type solution = {
  model_name : string;
  task_name : string;
  rounds : int;
  inputs : Simplex.t list;
  verdict : bool;
  map : Simplicial_map.t option;
}

type fixed_point = {
  op_name : string;
  task_name : string;
  per_sigma : (Simplex.t * Simplex.t list) list;
}

type obstruction =
  | Disconnected of { complex : Complex.t; u : Vertex.t; v : Vertex.t }
  | Sperner of { complex : Complex.t; seed : int; samples : int }

type unsolvable = { task_name : string; rounds : int; reason : obstruction }

type equivalence = {
  lhs : string;
  rhs : string;
  n : int;
  equivalent : bool;
  probes : (string * string * string) list;
}

type atlas_cell = {
  cell_op : string;
  cell_task : string;
  cell_keys : string list;
}

type atlas = { atlas_name : string; atlas_cells : atlas_cell list }

type t =
  | Membership of membership
  | Enumeration of enumeration
  | Solution of solution
  | Fixed_point of fixed_point
  | Unsolvable of unsolvable
  | Equivalence of equivalence
  | Atlas of atlas

let kind_name = function
  | Membership _ -> "membership"
  | Enumeration _ -> "enumeration"
  | Solution _ -> "solution"
  | Fixed_point _ -> "fixed-point"
  | Unsolvable _ -> "unsolvable"
  | Equivalence _ -> "equivalence"
  | Atlas _ -> "atlas"

let subject = function
  | Membership m ->
      Printf.sprintf "%s ⊢ %s ∈ Δ'[%s](%s): %b" m.task_name
        (Simplex.to_string m.tau) m.op_name (Simplex.to_string m.sigma)
        m.member
  | Enumeration e ->
      Printf.sprintf "%s ⊢ Δ'[%s](%s): %d members" e.task_name e.op_name
        (Simplex.to_string e.sigma) (List.length e.members)
  | Solution s ->
      Printf.sprintf "%s in %s, %d round(s): %s" s.task_name s.model_name
        s.rounds
        (if s.verdict then "solvable" else "unsolvable")
  | Fixed_point f ->
      Printf.sprintf "%s is a fixed point of CL[%s] on %d simplices"
        f.task_name f.op_name (List.length f.per_sigma)
  | Unsolvable u ->
      Printf.sprintf "%s unsolvable in %d round(s) (%s)" u.task_name u.rounds
        (match u.reason with
        | Disconnected _ -> "disconnection"
        | Sperner _ -> "Sperner")
  | Equivalence e ->
      Printf.sprintf "%s %s %s at n ≤ %d (%d probes)" e.lhs
        (if e.equivalent then "≡" else "≢")
        e.rhs e.n (List.length e.probes)
  | Atlas a ->
      Printf.sprintf "atlas %s: %d cell(s), %d closure key(s)" a.atlas_name
        (List.length a.atlas_cells)
        (List.fold_left
           (fun acc c -> acc + List.length c.cell_keys)
           0 a.atlas_cells)

(* ---- encoding ---- *)

let field name v = List [ Atom name; v ]
let field_list name vs = List (Atom name :: vs)

let opt_map = function
  | None -> Atom "none"
  | Some f -> Codec.simplicial_map f

let encode_obstruction = function
  | Disconnected { complex; u; v } ->
      List
        [
          Atom "disconnected"; Codec.complex complex; Codec.vertex u;
          Codec.vertex v;
        ]
  | Sperner { complex; seed; samples } ->
      List
        [
          Atom "sperner"; Codec.complex complex; Atom (string_of_int seed);
          Atom (string_of_int samples);
        ]

let encode_body = function
  | Membership m ->
      List
        [
          Atom "membership";
          field "op" (Atom m.op_name);
          field "task" (Atom m.task_name);
          field "sigma" (Codec.simplex m.sigma);
          field "tau" (Codec.simplex m.tau);
          field "member" (Atom (string_of_bool m.member));
          field "witness" (opt_map m.witness);
        ]
  | Enumeration e ->
      List
        [
          Atom "enumeration";
          field "op" (Atom e.op_name);
          field "task" (Atom e.task_name);
          field "sigma" (Codec.simplex e.sigma);
          field_list "members"
            (List.map
               (fun (tau, w) -> List [ Codec.simplex tau; opt_map w ])
               e.members);
        ]
  | Solution s ->
      List
        [
          Atom "solution";
          field "model" (Atom s.model_name);
          field "task" (Atom s.task_name);
          field "rounds" (Atom (string_of_int s.rounds));
          field_list "inputs" (List.map Codec.simplex s.inputs);
          field "verdict" (Atom (string_of_bool s.verdict));
          field "map" (opt_map s.map);
        ]
  | Fixed_point f ->
      List
        [
          Atom "fixed-point";
          field "op" (Atom f.op_name);
          field "task" (Atom f.task_name);
          field_list "entries"
            (List.map
               (fun (sigma, facets) ->
                 List [ Codec.simplex sigma; List (List.map Codec.simplex facets) ])
               f.per_sigma);
        ]
  | Unsolvable u ->
      List
        [
          Atom "unsolvable";
          field "task" (Atom u.task_name);
          field "rounds" (Atom (string_of_int u.rounds));
          field "obstruction" (encode_obstruction u.reason);
        ]
  | Equivalence e ->
      List
        [
          Atom "equivalence";
          field "lhs" (Atom e.lhs);
          field "rhs" (Atom e.rhs);
          field "n" (Atom (string_of_int e.n));
          field "equivalent" (Atom (string_of_bool e.equivalent));
          field_list "probes"
            (List.map
               (fun (label, l, r) -> List [ Atom label; Atom l; Atom r ])
               e.probes);
        ]
  | Atlas a ->
      List
        [
          Atom "atlas";
          field "name" (Atom a.atlas_name);
          field_list "cells"
            (List.map
               (fun c ->
                 List
                   [
                     Atom c.cell_op; Atom c.cell_task;
                     List (List.map (fun k -> Atom k) c.cell_keys);
                   ])
               a.atlas_cells);
        ]

let encode cert =
  List [ Atom "cert"; field "version" (Atom version); encode_body cert ]

(* ---- decoding ---- *)

let find_field name fields =
  let rec go = function
    | [] -> Codec.fail "missing field %s" name
    | List (Atom n :: rest) :: _ when n = name -> rest
    | _ :: tl -> go tl
  in
  go fields

let field1 name fields =
  match find_field name fields with
  | [ v ] -> v
  | _ -> Codec.fail "field %s expects one value" name

let opt_map_of = function
  | Atom "none" -> None
  | s -> Some (Codec.simplicial_map_of s)

let decode_obstruction = function
  | List [ Atom "disconnected"; c; u; v ] ->
      Disconnected
        {
          complex = Codec.complex_of c;
          u = Codec.vertex_of u;
          v = Codec.vertex_of v;
        }
  | List [ Atom "sperner"; c; seed; samples ] ->
      Sperner
        {
          complex = Codec.complex_of c;
          seed = Codec.int_of seed;
          samples = Codec.int_of samples;
        }
  | s -> Codec.fail "bad obstruction %s" (Cert_sexp.to_string s)

let decode_body = function
  | List (Atom "membership" :: fields) ->
      Membership
        {
          op_name = Codec.string_of (field1 "op" fields);
          task_name = Codec.string_of (field1 "task" fields);
          sigma = Codec.simplex_of (field1 "sigma" fields);
          tau = Codec.simplex_of (field1 "tau" fields);
          member = Codec.bool_of (field1 "member" fields);
          witness = opt_map_of (field1 "witness" fields);
        }
  | List (Atom "enumeration" :: fields) ->
      Enumeration
        {
          op_name = Codec.string_of (field1 "op" fields);
          task_name = Codec.string_of (field1 "task" fields);
          sigma = Codec.simplex_of (field1 "sigma" fields);
          members =
            List.map
              (function
                | List [ tau; w ] -> (Codec.simplex_of tau, opt_map_of w)
                | _ -> Codec.fail "bad enumeration member")
              (find_field "members" fields);
        }
  | List (Atom "solution" :: fields) ->
      Solution
        {
          model_name = Codec.string_of (field1 "model" fields);
          task_name = Codec.string_of (field1 "task" fields);
          rounds = Codec.int_of (field1 "rounds" fields);
          inputs = List.map Codec.simplex_of (find_field "inputs" fields);
          verdict = Codec.bool_of (field1 "verdict" fields);
          map = opt_map_of (field1 "map" fields);
        }
  | List (Atom "fixed-point" :: fields) ->
      Fixed_point
        {
          op_name = Codec.string_of (field1 "op" fields);
          task_name = Codec.string_of (field1 "task" fields);
          per_sigma =
            List.map
              (function
                | List [ sigma; List facets ] ->
                    (Codec.simplex_of sigma, List.map Codec.simplex_of facets)
                | _ -> Codec.fail "bad fixed-point entry")
              (find_field "entries" fields);
        }
  | List (Atom "unsolvable" :: fields) ->
      Unsolvable
        {
          task_name = Codec.string_of (field1 "task" fields);
          rounds = Codec.int_of (field1 "rounds" fields);
          reason = decode_obstruction (field1 "obstruction" fields);
        }
  | List (Atom "equivalence" :: fields) ->
      Equivalence
        {
          lhs = Codec.string_of (field1 "lhs" fields);
          rhs = Codec.string_of (field1 "rhs" fields);
          n = Codec.int_of (field1 "n" fields);
          equivalent = Codec.bool_of (field1 "equivalent" fields);
          probes =
            List.map
              (function
                | List [ label; l; r ] ->
                    ( Codec.string_of label,
                      Codec.string_of l,
                      Codec.string_of r )
                | _ -> Codec.fail "bad equivalence probe")
              (find_field "probes" fields);
        }
  | List (Atom "atlas" :: fields) ->
      Atlas
        {
          atlas_name = Codec.string_of (field1 "name" fields);
          atlas_cells =
            List.map
              (function
                | List [ Atom op; Atom task; List keys ] ->
                    {
                      cell_op = op;
                      cell_task = task;
                      cell_keys = List.map Codec.string_of keys;
                    }
                | _ -> Codec.fail "bad atlas cell")
              (find_field "cells" fields);
        }
  | s -> Codec.fail "unknown certificate kind %s" (Cert_sexp.to_string s)

let decode sexp =
  match sexp with
  | List [ Atom "cert"; List [ Atom "version"; Atom v ]; body ] -> (
      if v <> version then
        Error (Printf.sprintf "stale certificate version %S (engine: %S)" v version)
      else
        try Ok (decode_body body) with
        | Codec.Decode_error msg -> Error msg
        | Invalid_argument msg | Failure msg ->
            Error (Printf.sprintf "ill-formed certificate data: %s" msg))
  | _ -> Error "not a certificate"

let equal a b = Cert_sexp.equal (encode a) (encode b)

(* ---- content-addressed keys ---- *)

type query =
  | Q_delta of { op_name : string; task_name : string; sigma : Simplex.t }
  | Q_member of {
      op_name : string;
      task_name : string;
      sigma : Simplex.t;
      tau : Simplex.t;
    }
  | Q_solve of {
      model_name : string;
      task_name : string;
      rounds : int;
      inputs : Simplex.t list;
    }
  | Q_fixed_point of {
      op_name : string;
      task_name : string;
      sigmas : Simplex.t list;
    }
  | Q_unsolvable of { task_name : string; rounds : int }
  | Q_equiv of { lhs : string; rhs : string; n : int }
  | Q_atlas of { atlas_name : string }

let query_of = function
  | Membership m ->
      Q_member
        {
          op_name = m.op_name;
          task_name = m.task_name;
          sigma = m.sigma;
          tau = m.tau;
        }
  | Enumeration e ->
      Q_delta { op_name = e.op_name; task_name = e.task_name; sigma = e.sigma }
  | Solution s ->
      Q_solve
        {
          model_name = s.model_name;
          task_name = s.task_name;
          rounds = s.rounds;
          inputs = s.inputs;
        }
  | Fixed_point f ->
      Q_fixed_point
        {
          op_name = f.op_name;
          task_name = f.task_name;
          sigmas = List.map fst f.per_sigma;
        }
  | Unsolvable u -> Q_unsolvable { task_name = u.task_name; rounds = u.rounds }
  | Equivalence e -> Q_equiv { lhs = e.lhs; rhs = e.rhs; n = e.n }
  | Atlas a -> Q_atlas { atlas_name = a.atlas_name }

let query_sexp = function
  | Q_delta { op_name; task_name; sigma } ->
      List
        [ Atom "delta"; Atom op_name; Atom task_name; Codec.simplex sigma ]
  | Q_member { op_name; task_name; sigma; tau } ->
      List
        [
          Atom "member"; Atom op_name; Atom task_name; Codec.simplex sigma;
          Codec.simplex tau;
        ]
  | Q_solve { model_name; task_name; rounds; inputs } ->
      List
        [
          Atom "solve"; Atom model_name; Atom task_name;
          Atom (string_of_int rounds); List (List.map Codec.simplex inputs);
        ]
  | Q_fixed_point { op_name; task_name; sigmas } ->
      List
        [
          Atom "fixed-point"; Atom op_name; Atom task_name;
          List (List.map Codec.simplex sigmas);
        ]
  | Q_unsolvable { task_name; rounds } ->
      List [ Atom "unsolvable"; Atom task_name; Atom (string_of_int rounds) ]
  | Q_equiv { lhs; rhs; n } ->
      List [ Atom "equiv"; Atom lhs; Atom rhs; Atom (string_of_int n) ]
  | Q_atlas { atlas_name } -> List [ Atom "atlas"; Atom atlas_name ]

let query_key q =
  Codec.digest (List [ Atom "key"; Atom version; query_sexp q ])

let key c = query_key (query_of c)

(* ---- verification ---- *)

type env = {
  task_of_name : string -> Task.t option;
  facets_of_op : string -> (Simplex.t -> Simplex.t list) option;
  protocol_of_model : string -> (Simplex.t -> int -> Complex.t) option;
}

type error = Unsupported of string | Invalid of string

let error_message = function Unsupported m | Invalid m -> m

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let resolve what resolver name =
  match resolver name with
  | Some v -> Ok v
  | None -> Error (Unsupported (Printf.sprintf "unknown %s %S" what name))

let check cond fmt =
  Printf.ksprintf
    (fun msg -> if cond then Ok () else Error (Invalid msg))
    fmt

(* The membership check of Definition 2, replayed on the witness: the
   map must be chromatic and, for every face τ' of τ, send every facet
   of the one-round complex of τ' into Δ_{τ,σ}(τ') — without any
   search. *)
let verify_member env ~op_name ~task ~sigma ~tau ~member ~witness =
  let* () =
    check
      (Local_task.is_valid_tau task ~sigma ~tau)
      "τ = %s is not a chromatic subset of V(Δ(σ)) with ID(τ) = ID(σ)"
      (Simplex.to_string tau)
  in
  if not member then Ok ()
  else
    match witness with
    | None ->
        check
          (Complex.mem tau (Task.delta task sigma))
          "zero-round membership claimed but %s ∉ Δ(%s)"
          (Simplex.to_string tau) (Simplex.to_string sigma)
    | Some f ->
        let* facets = resolve "operator" env.facets_of_op op_name in
        let* () = check (Simplicial_map.is_chromatic f) "witness is not chromatic" in
        let local =
          try Ok (Local_task.make task ~sigma ~tau)
          with Invalid_argument msg -> Error (Invalid msg)
        in
        let* local = local in
        check
          (Simplicial_map.agrees_with f
             ~inputs:(Simplex.faces tau)
             ~protocol:(fun tau' -> Complex.of_facets (facets tau'))
             ~delta:(Task.delta local))
          "witness for %s does not solve the local task Π_{τ,σ} in one round"
          (Simplex.to_string tau)

let verify env cert =
  match cert with
  | Membership m ->
      let* task = resolve "task" env.task_of_name m.task_name in
      verify_member env ~op_name:m.op_name ~task ~sigma:m.sigma ~tau:m.tau
        ~member:m.member ~witness:m.witness
  | Enumeration e ->
      let* task = resolve "task" env.task_of_name e.task_name in
      let members = Complex.of_facets (List.map fst e.members) in
      let* () =
        check
          (Complex.subcomplex (Task.delta task e.sigma) members)
          "Δ(σ) ⊄ recorded Δ'(%s)" (Simplex.to_string e.sigma)
      in
      List.fold_left
        (fun acc (tau, witness) ->
          let* () = acc in
          verify_member env ~op_name:e.op_name ~task ~sigma:e.sigma ~tau
            ~member:true ~witness)
        (Ok ()) e.members
  | Solution s ->
      if not s.verdict then Ok ()
      else
        let* task = resolve "task" env.task_of_name s.task_name in
        let* protocol = resolve "model" env.protocol_of_model s.model_name in
        let* f =
          match s.map with
          | Some f -> Ok f
          | None -> Error (Invalid "solvable verdict without a decision map")
        in
        let* () = check (Simplicial_map.is_chromatic f) "decision map is not chromatic" in
        check
          (Simplicial_map.agrees_with f ~inputs:s.inputs
             ~protocol:(fun sigma -> protocol sigma s.rounds)
             ~delta:(Task.delta task))
          "decision map does not agree with Δ after %d round(s)" s.rounds
  | Fixed_point fp ->
      let* task = resolve "task" env.task_of_name fp.task_name in
      List.fold_left
        (fun acc (sigma, facets) ->
          let* () = acc in
          check
            (Complex.equal (Complex.of_facets facets) (Task.delta task sigma))
            "Δ'(%s) differs from Δ(%s)" (Simplex.to_string sigma)
            (Simplex.to_string sigma))
        (Ok ()) fp.per_sigma
  | Unsolvable u -> (
      match u.reason with
      | Disconnected { complex; u = a; v = b } ->
          let* () =
            check
              (Complex.mem_vertex a complex && Complex.mem_vertex b complex)
              "obstruction endpoints are not vertices of the complex"
          in
          check
            (Option.is_none (Connectivity.path complex a b))
            "claimed disconnection refuted: a path exists"
      | Sperner { complex; seed; samples } ->
          let* () = check (samples > 0) "no Sperner samples recorded" in
          check
            (Sperner.sampled_check ~seed ~samples complex)
            "Sperner obstruction refuted on resampling")
  | Equivalence e ->
      (* The probe verdicts are fingerprints of exhausted pipeline runs
         and, like negative facts, carry no compact witness; what is
         checked is internal consistency: both names are canonical
         algebra terms, the pair is stored in canonical order, and the
         verdict is exactly the conjunction of the probe agreements. *)
      let canonical side name =
        match Algebra.parse name with
        | Ok t ->
            check
              (String.equal (Algebra.to_string t) name)
              "%s term %S is not in canonical form" side name
        | Error msg -> Error (Invalid (Printf.sprintf "%s term: %s" side msg))
      in
      let* () = canonical "lhs" e.lhs in
      let* () = canonical "rhs" e.rhs in
      let* () =
        check (String.compare e.lhs e.rhs < 0)
          "equivalence pair is not in canonical order"
      in
      let* () = check (e.n >= 1) "bound n must be at least 1" in
      let* () = check (e.probes <> []) "no probes recorded" in
      check
        (e.equivalent
        = List.for_all (fun (_, l, r) -> String.equal l r) e.probes)
        "verdict does not match the recorded probes"
  | Atlas a ->
      (* The manifest's claim is purely structural: every recorded key
         is the content address of the Q_delta query its cell names.
         Recomputing the keys from the named operator and task takes no
         enumeration, so a tampered manifest (wrong key, renamed cell,
         missing σ) is caught in milliseconds; whether the keyed
         entries are present and valid is the store-level audit
         [speedup atlas verify] runs on top. *)
      let* () = check (a.atlas_cells <> []) "atlas records no cells" in
      List.fold_left
        (fun acc cell ->
          let* () = acc in
          let* task = resolve "task" env.task_of_name cell.cell_task in
          let* _facets = resolve "operator" env.facets_of_op cell.cell_op in
          let* () =
            check
              (String.equal task.Task.name cell.cell_task)
              "cell task name %S is not the canonical rendering %S"
              cell.cell_task task.Task.name
          in
          let expected =
            List.map
              (fun sigma ->
                query_key
                  (Q_delta
                     {
                       op_name = cell.cell_op;
                       task_name = cell.cell_task;
                       sigma;
                     }))
              (Task.input_simplices task)
          in
          check
            (List.length expected = List.length cell.cell_keys
            && List.for_all2 String.equal expected cell.cell_keys)
            "cell (%s, %s) records keys that do not match its input simplices"
            cell.cell_op cell.cell_task)
        (Ok ()) a.atlas_cells

(* ---- store read-through ---- *)

let src = Logs.Src.create "speedup.cert" ~doc:"Certificate read-through"

module Log = (val Logs.src_log src : Logs.LOG)

(* The store is addressed by query digest, so an entry answers the
   query exactly when its own key is that digest; a misfiled entry
   (another query's valid certificate under this key) is set aside
   like a forged one. *)
let load_verified ~env query project =
  let addr = query_key query in
  match Store.load addr with
  | None -> None
  | Some sexp -> (
      let reject () =
        Store.quarantine addr;
        None
      in
      match decode sexp with
      | Error msg ->
          Log.warn (fun m -> m "stale/corrupt certificate %s: %s" addr msg);
          reject ()
      | Ok cert when not (String.equal (key cert) addr) -> reject ()
      | Ok cert -> (
          match verify env cert with
          | Error e ->
              Log.warn (fun m ->
                  m "certificate %s failed verification: %s" addr
                    (error_message e));
              reject ()
          | Ok () -> (
              match project cert with Some v -> Some v | None -> reject ())))

let cached ~env query project ~compute ~certify =
  if not (Store.enabled ()) then compute ()
  else
    match load_verified ~env query project with
    | Some v -> v
    | None ->
        let v = compute () in
        Option.iter
          (fun cert -> Store.save ~key:(query_key query) (encode cert))
          (certify v);
        v

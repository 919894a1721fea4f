type result = {
  wall_s : float;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  digests : string list;
}

let to_json r =
  Jsonl.Obj
    [
      ("wall_s", Jsonl.Float r.wall_s);
      ("attempted", Jsonl.Int r.attempted);
      ("failed", Jsonl.Int r.failed);
      ("metrics", Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Float v)) r.metrics));
      ("digests", Jsonl.List (List.map (fun d -> Jsonl.String d) r.digests));
    ]

let of_json j =
  let get k = Option.get (Jsonl.member k j) in
  let int k = Option.get (Jsonl.to_int (get k)) in
  let fields = function Jsonl.Obj l -> l | _ -> [] in
  let items = function Jsonl.List l -> l | _ -> [] in
  {
    wall_s = Option.get (Jsonl.to_float (get "wall_s"));
    attempted = int "attempted";
    failed = int "failed";
    metrics =
      List.map (fun (k, v) -> (k, Option.get (Jsonl.to_float v))) (fields (get "metrics"));
    digests = List.map (fun d -> Option.get (Jsonl.to_str d)) (items (get "digests"));
  }

let digest_complex c = Digest.to_hex (Digest.string (Format.asprintf "%a" Complex.pp c))
let timed f =
  let t0 = Clock.now_ns () in
  let v = f () in
  (v, Clock.seconds_between t0 (Clock.now_ns ()))

(* ---- closure ---- *)

let closure_reference groups =
  let before = (Closure.memo_stats ()).Closure.enumerations in
  let out, wall_s =
    timed (fun () ->
        List.concat_map
          (fun (g : Instances.group) ->
            List.map (fun s -> Closure.delta ~memo:false ~op:g.op g.task s) g.sigmas)
          groups)
  in
  let enumerations = (Closure.memo_stats ()).Closure.enumerations - before in
  {
    wall_s;
    attempted = 0;
    failed = 0;
    metrics =
      [ ("closure.delta_s", wall_s); ("closure.enumerations", float_of_int enumerations) ];
    digests = List.map digest_complex out;
  }

(* Definition 2, one σ: the zero-round members of Δ(σ), then one
   local-task solvability search per remaining candidate τ. *)
let enumerate (g : Instances.group) sigma =
  Trace.with_span "closure.enumerate" (fun () ->
      let taus, zero =
        Trace.with_span "tasks.candidates" (fun () ->
            let taus = Task.chromatic_output_sets g.task sigma in
            let zero = Task.delta g.task sigma in
            Trace.count "tasks.candidates" (List.length taus);
            (taus, zero))
      in
      let members =
        List.filter_map
          (fun tau ->
            if Complex.mem tau zero then Some (tau, None)
            else begin
              let local =
                Trace.with_span "tasks.local_task" (fun () ->
                    Local_task.make g.task ~sigma ~tau)
              in
              Trace.count "solver.searched" 1;
              match
                Trace.with_span "solver.decide" (fun () ->
                    Solvability.decide ~inputs:(Simplex.faces tau)
                      ~protocol:(fun t ->
                        Trace.with_span "models.protocol" (fun () ->
                            Complex.of_facets (Round_op.facets g.op t)))
                      ~delta:(fun t ->
                        Trace.with_span "tasks.local_delta" (fun () -> Task.delta local t))
                      ())
              with
              | Solvability.Solvable f ->
                  Trace.count "solver.admitted" 1;
                  Some (tau, Some f)
              | Solvability.Unsolvable -> None
              | Solvability.Undecided -> failwith "closure replay: undecided local task"
            end)
          taus
      in
      (Complex.of_facets (List.map fst members), members))

let store_ready (g : Instances.group) =
  Round_op.persistent g.op && Cert_registry.known_task g.task.Task.name

(* Like the reference pass, the replay keeps only the Δ' complexes:
   retaining every witness map would grow the heap and bill the extra GC
   work to the layers. *)
let closure_replay groups =
  let out, wall_s =
    timed (fun () ->
        List.concat_map
          (fun (g : Instances.group) -> List.map (fun sigma -> fst (enumerate g sigma)) g.sigmas)
          groups)
  in
  { wall_s; attempted = 0; failed = 0; metrics = []; digests = List.map digest_complex out }

let closure_certs groups =
  List.concat_map
    (fun (g : Instances.group) ->
      if not (store_ready g) then []
      else
        List.map
          (fun sigma ->
            Cert.Enumeration
              {
                op_name = Round_op.name g.op;
                task_name = g.task.Task.name;
                sigma;
                members = snd (enumerate g sigma);
              })
          g.sigmas)
    groups

(* The recorded spans summed per name, looked up by name. *)
let layers () =
  let by_name = Trace.by_name (Trace.spans ()) in
  fun name ->
    Option.value (List.assoc_opt name by_name)
      ~default:{ Trace.calls = 0; total_s = 0.; self_s = 0.; alloc_w = 0.; self_alloc_w = 0. }

let mw w = w /. 1e6

let replay_metrics () =
  let layer = layers () in
  let cand = layer "tasks.candidates"
  and lt = layer "tasks.local_task"
  and ld = layer "tasks.local_delta"
  and proto = layer "models.protocol"
  and decide = layer "solver.decide" in
  let searched = Trace.counter "solver.searched" in
  [
    ("tasks.candidates_s", cand.total_s);
    ("tasks.candidates", float_of_int (Trace.counter "tasks.candidates"));
    ("tasks.candidates_alloc_mw", mw cand.alloc_w);
    ("tasks.local_task_s", lt.total_s);
    ("tasks.local_delta_s", ld.total_s);
    ("tasks.local_alloc_mw", mw (lt.alloc_w +. ld.alloc_w));
    ("models.protocol_s", proto.total_s);
    ("models.protocol_alloc_mw", mw proto.alloc_w);
    ("solver.decide_self_s", decide.self_s);
    ("solver.decide_self_alloc_mw", mw decide.self_alloc_w);
    ("solver.decide_calls", float_of_int decide.calls);
    ( "solver.admitted_ratio",
      if searched = 0 then 0.
      else float_of_int (Trace.counter "solver.admitted") /. float_of_int searched );
  ]

(* ---- cert ---- *)

let rec store_bytes dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      match (Unix.lstat path).Unix.st_kind with
      | Unix.S_DIR -> acc + store_bytes path
      | Unix.S_REG -> acc + (Unix.lstat path).Unix.st_size
      | _ -> acc)
    0 (Sys.readdir dir)

let verify_all decoded =
  List.fold_left
    (fun failed c ->
      match Trace.with_span "cert.verify" (fun () -> Cert.verify Cert_registry.env c) with
      | Ok () -> failed
      | Error _ -> failed + 1)
    0 decoded

let decode_all sexps =
  List.fold_left
    (fun (ok, failed) s ->
      match Trace.with_span "cert.decode" (fun () -> Cert.decode s) with
      | Ok c -> (c :: ok, failed)
      | Error _ -> (ok, failed + 1))
    ([], 0) sexps
  |> fun (ok, failed) -> (List.rev ok, failed)

let load_all keys =
  List.fold_left
    (fun (ok, failed) key ->
      match Trace.with_span "cert.load" (fun () -> Cert_store.load key) with
      | Some s -> (s :: ok, failed)
      | None -> (ok, failed + 1))
    ([], 0) keys
  |> fun (ok, failed) -> (List.rev ok, failed)

let save_all ~scratch certs =
  Cert_store.set_dir (Some scratch);
  List.iter
    (fun c ->
      let s = Trace.with_span "cert.encode" (fun () -> Cert.encode c) in
      Trace.with_span "cert.save" (fun () -> Cert_store.save ~key:(Cert.key c) s))
    certs

let cert_metrics ~entries ~bytes =
  let l = layers () in
  [
    ("cert.load_s", (l "cert.load").total_s);
    ("cert.decode_s", (l "cert.decode").total_s);
    ("cert.verify_s", (l "cert.verify").total_s);
    ("cert.verify_alloc_mw", mw (l "cert.verify").alloc_w);
    ("cert.entries", float_of_int entries);
    ("cert.store_bytes", float_of_int bytes);
    ("cert.encode_s", (l "cert.encode").total_s);
    ("cert.save_s", (l "cert.save").total_s);
  ]

let cert_of_store dir ~scratch =
  let ((n, failed), wall_s) =
    timed (fun () ->
        Cert_store.set_dir (Some dir);
        let keys = List.map fst (Cert_store.entries ()) in
        let sexps, load_failed = load_all keys in
        let certs, decode_failed = decode_all sexps in
        let verify_failed = verify_all certs in
        save_all ~scratch certs;
        (List.length keys, load_failed + decode_failed + verify_failed))
  in
  {
    wall_s;
    attempted = n;
    failed;
    metrics = cert_metrics ~entries:n ~bytes:(store_bytes dir);
    digests = [];
  }

let cert_of_certs certs ~scratch =
  let (failed, wall_s) =
    timed (fun () ->
        save_all ~scratch certs;
        let sexps, load_failed = load_all (List.map Cert.key certs) in
        let decoded, decode_failed = decode_all sexps in
        load_failed + decode_failed + verify_all decoded)
  in
  let n = List.length certs in
  {
    wall_s;
    attempted = n;
    failed;
    metrics = cert_metrics ~entries:n ~bytes:(store_bytes scratch);
    digests = [];
  }

(* ---- wire ---- *)

(* One request through the three wire layers; [None] on any error. *)
let wire_one i (r : Draw.request) =
  let line = Draw.line ~id:i r in
  Trace.with_span ~req:i "wire.request" (fun () ->
      match Trace.with_span "wire.decode" (fun () -> Wire.decode_request line) with
      | Error _ -> None
      | Ok req -> (
          let result =
            Trace.with_span "wire.compute" (fun () ->
                if req.Wire.meth = "ping" then Ok (Jsonl.String "pong")
                else Wire.compute ~should_stop:(fun () -> false) req)
          in
          match result with
          | Error _ -> None
          | Ok v ->
              Some (Trace.with_span "wire.render" (fun () -> Wire.ok_reply ~id:req.Wire.id v))))

let wire_replay reqs ~golden =
  let failed = ref 0 and bytes = ref 0 in
  let first = Hashtbl.create 64 in
  let check key reply_body =
    match reply_body with
    | None -> incr failed
    | Some body -> (
        (match Hashtbl.find_opt golden key with
        | Some g when String.equal g (Golden.md5 body) -> ()
        | _ -> incr failed);
        match Hashtbl.find_opt first key with
        | None -> Hashtbl.replace first key body
        | Some b -> if not (String.equal b body) then incr failed)
  in
  let (), wall_s =
    timed (fun () ->
        Array.iteri
          (fun i (r : Draw.request) ->
            match wire_one i r with
            | None -> incr failed
            | Some reply ->
                bytes := !bytes + String.length reply;
                check r.key (Loadgen.body_of_reply ~id:i reply))
          reqs)
  in
  let l = layers () in
  {
    wall_s;
    attempted = Array.length reqs;
    failed = !failed;
    metrics =
      [
        ("wire.decode_s", (l "wire.decode").total_s);
        ("wire.compute_s", (l "wire.compute").total_s);
        ("wire.render_s", (l "wire.render").total_s);
        ("wire.reply_bytes", float_of_int !bytes);
      ];
    digests = [];
  }

(* The repository benchmark: one workload per run, end-to-end metrics
   with tracing off (--trace 0) or per-layer metrics from the traced
   replays (--trace 1).  See perfbench/README.md. *)

open Perfbench

let fail fmt = Printf.ksprintf failwith fmt
let golden_dir = "perfbench/golden"

(* ---- report ---- *)

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  mutable metrics : (string * float * float list) list;
      (** name, value, the samples it was taken from (for the spread) *)
}

let report = { attempted = 0; failed = 0; notes = []; metrics = [] }

let metric ?(samples = []) name value =
  report.metrics <- (name, value, samples) :: report.metrics

let check ok what =
  report.attempted <- report.attempted + 1;
  if not ok then begin
    report.failed <- report.failed + 1;
    report.notes <- ("check failed: " ^ what) :: report.notes
  end

let add_counts ~attempted ~failed what =
  report.attempted <- report.attempted + attempted;
  report.failed <- report.failed + failed;
  if failed > 0 then
    report.notes <- Printf.sprintf "%s: %d of %d failed" what failed attempted :: report.notes

(* ---- configuration ---- *)

type cfg = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  speedup : string;
  self : string;
  nproc : int;
  work : string;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let json_file path =
  match Jsonl.of_string (read_file path) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let member k j = match Jsonl.member k j with Some v -> v | None -> fail "missing %S" k
let to_int j = match Jsonl.to_int j with Some i -> i | None -> fail "not an int"
let to_float j = match Jsonl.to_float j with Some f -> f | None -> fail "not a number"
let to_list = function Jsonl.List l -> l | _ -> fail "not a list"

(* The metric names and units a run must print come from BENCHMARK.json. *)
let spec_metrics key =
  List.map
    (fun m ->
      match (Jsonl.member "name" m, Jsonl.member "unit" m) with
      | Some (Jsonl.String n), Some (Jsonl.String u) -> (n, u)
      | _ -> fail "BENCHMARK.json: malformed %s entry" key)
    (to_list (member key (json_file "BENCHMARK.json")))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

let with_out path f =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* A child of this executable, in a fresh process: store off unless
   [store] is given, at the given job count. *)
let child cfg ?(jobs = 1) ?store ?stdout args =
  let env =
    ("SPEEDUP_JOBS", string_of_int jobs)
    :: (match store with Some s -> [ ("CERT_CACHE_DIR", s) ] | None -> [])
  in
  Proc.run ~env ~unset:[ "CERT_CACHE_DIR" ] ?stdout cfg.self ("child" :: args)

let golden name = Golden.load (Filename.concat golden_dir name)

let expect ~file ~key digest what = check (Hashtbl.find_opt (golden file) key = Some digest) what

let ms_of_s s = s *. 1000.

(* The spans of a traced run's latest replays stay after the run, one
   file per workload and replay, for reading by hand. *)
let spans_file cfg kind =
  (try Unix.mkdir "perfbench/_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.sprintf "perfbench/_out/%s.%s.spans.jsonl" cfg.workload kind

(* ---- tables ---- *)

let smoke_experiments = [ "e1"; "e3"; "e5"; "e14" ]

type tables_run = {
  launch_to_first_s : float;
  wall_s : float;
  per_exp : (string * float) list;  (** id, seconds *)
  completion_s : float list;  (** per experiment, batch start to its tables *)
  oks : bool list;
  hwm : float;
  child_json : Jsonl.t;
  render : string;
}

let run_tables cfg ~jobs ~tag =
  let result = Filename.concat cfg.work (tag ^ ".json") in
  let render_path = Filename.concat cfg.work (tag ^ ".txt") in
  let only = if cfg.smoke then [ "--only"; String.concat "," smoke_experiments ] else [] in
  let t0 = Clock.now_ns () in
  with_out render_path (fun fd ->
      child cfg ~jobs ~stdout:fd ([ "tables"; "--result"; result ] @ only));
  let j = json_file result in
  let first = to_int (member "first_ns" j) and stop = to_int (member "stop_ns" j) in
  {
    launch_to_first_s = Clock.seconds_between t0 first;
    wall_s = Clock.seconds_between first stop;
    per_exp =
      List.map
        (function
          | Jsonl.List [ Jsonl.String id; a; b ] ->
              (id, Clock.seconds_between (to_int a) (to_int b))
          | _ -> fail "bad experiment row")
        (to_list (member "experiments" j));
    completion_s =
      List.map
        (function
          | Jsonl.List [ _; _; b ] -> Clock.seconds_between first (to_int b)
          | _ -> fail "bad experiment row")
        (to_list (member "experiments" j));
    oks = List.map (function Jsonl.Bool b -> b | _ -> false) (to_list (member "oks" j));
    hwm = to_float (member "peak_rss_mb" j);
    child_json = j;
    render = read_file render_path;
  }

let probe_setup cfg =
  let result = Filename.concat cfg.work "probe.json" in
  let t0 = Clock.now_ns () in
  child cfg [ "probe"; "--result"; result ];
  Clock.seconds_between t0 (to_int (member "first_ns" (json_file result)))

(* Closure reference, untraced replay and traced replay, each in a
   fresh process (and with [~certs], the cert pass over the replay's
   certificates): returns (traced wall, untraced wall). *)
let closure_layers cfg ~groups ~certs =
  let out mode = Filename.concat cfg.work ("closure-" ^ mode ^ ".json") in
  let scratch =
    if certs then [ "--scratch"; fresh_dir (Filename.concat cfg.work "cert-scratch") ] else []
  in
  let run mode extra =
    child cfg ([ "closure"; "--groups"; groups; "--mode"; mode; "--result"; out mode ] @ extra);
    Layers.of_json (json_file (out mode))
  in
  let r = run "ref" [] in
  let u = run "plain" [] in
  let p = run "replay" ([ "--spans"; spans_file cfg "closure" ] @ scratch) in
  let agrees (x : Layers.result) =
    List.length r.digests = List.length x.digests
    && List.for_all2 String.equal r.digests x.digests
  in
  check (agrees p && agrees u)
    "closure replay admits exactly the sets Closure.delta ~memo:false returns";
  add_counts ~attempted:p.attempted ~failed:p.failed "replay certificates";
  List.iter (fun (k, v) -> metric k v) (r.metrics @ p.metrics);
  metric "closure.other_s" (r.wall_s -. u.wall_s);
  (p.wall_s, u.wall_s)

let pool_metrics j =
  List.iter
    (fun k -> metric ("parallel." ^ k) (float_of_int (to_int (member k j))))
    [ "batches"; "chunks"; "items"; "steals" ]

let memo_ratio j =
  let h = to_int (member "hits" j) and m = to_int (member "misses" j) in
  metric "closure.memo_hit_ratio"
    (if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m))

(* The timed batch runs at jobs=1: on a 2-core host the suite's wall at
   jobs=2 varies by about 10% from run to run, against about 3% at
   jobs=1.  The jobs=nproc leg is measured in the traced run.  Each
   experiment is a request of the batch, submitted when the batch
   starts: its latency is the time until its tables are done.

   An untraced run makes [passes] batches, each in a fresh process, and
   reports the median of each timing over them (nearest rank: of two,
   the faster), so one slow spell of the host moves a run less. *)
let passes = 2

let tables cfg =
  let passes = if cfg.trace then 1 else passes in
  let probes = if cfg.trace then [] else List.init (15 - passes) (fun _ -> probe_setup cfg) in
  let runs = List.init passes (fun i -> run_tables cfg ~jobs:1 ~tag:(Printf.sprintf "seq%d" i)) in
  let seq = List.hd runs in
  let per_pass f = List.map f runs in
  let median_of name f =
    let xs = per_pass f in
    let m = Stats.median xs in
    metric name m ~samples:xs;
    m
  in
  let pct p r = Stats.percentile (Stats.sorted (List.map ms_of_s r.completion_s)) p in
  let setup = per_pass (fun r -> r.launch_to_first_s) @ probes in
  let wall = median_of "wall_s" (fun r -> r.wall_s) in
  metric "setup_s" (Stats.median setup) ~samples:setup;
  metric "qps" (float_of_int (List.length seq.completion_s) /. wall);
  ignore (median_of "p50_ms" (pct 50.));
  ignore (median_of "p99_ms" (pct 99.));
  ignore (median_of "peak_rss_mb" (fun r -> r.hwm));
  List.iteri
    (fun p r ->
      List.iteri (fun i ok -> check ok (Printf.sprintf "pass %d: table %d is ok" (p + 1) (i + 1))) r.oks;
      expect ~file:"tables.txt"
        ~key:(if cfg.smoke then "smoke" else "all")
        (Golden.md5 r.render)
        (Printf.sprintf "pass %d: table rendering matches the recorded digest" (p + 1)))
    runs;
  if cfg.trace then begin
    let par = run_tables cfg ~jobs:cfg.nproc ~tag:"par" in
    check (String.equal seq.render par.render) "jobs=nproc rendering equals jobs=1";
    List.iter (fun (id, s) -> metric (Printf.sprintf "experiments.%s.seq_s" id) s) seq.per_exp;
    List.iter (fun (id, s) -> metric (Printf.sprintf "experiments.%s.par_s" id) s) par.per_exp;
    pool_metrics (member "pool" par.child_json);
    memo_ratio (member "memo" seq.child_json);
    let traced, untraced =
      closure_layers cfg ~certs:true ~groups:(if cfg.smoke then "smoke-tables" else "tables")
    in
    metric "trace.overhead_frac" ((traced /. untraced) -. 1.)
  end

(* ---- serve ---- *)

let grid_name cfg = (if cfg.smoke then "smoke-" else "") ^ if cfg.workload = "serve-cold" then "cold" else "warm"

let grid_of_name = function
  | "cold" -> Draw.cold_grid
  | "warm" -> Draw.warm_grid
  | "smoke-cold" -> Draw.smoke_cold_grid
  | "smoke-warm" -> Draw.smoke_warm_grid
  | g -> fail "unknown grid %s" g

(* Requests per second of --seconds: sized so that the few requests far
   slower than the rest (cold computations, first store loads) stay
   well under 1% of a run, and each run has about a hundred samples
   beyond p99. *)
let request_count cfg =
  if cfg.smoke then 200
  else
    max (Stats.min_samples_for 99.)
      (cfg.seconds * if cfg.workload = "serve-cold" then 1000 else 1200)

let atlas_max_n cfg = if cfg.smoke then 2 else 3

(* One set-up: a fresh store (atlas-built for serve-warm) and a fresh
   daemon; returns the daemon and launch-to-listening seconds.  The
   timed span starts once the previous set-up's store is gone and ends
   when the daemon listens; the atlas digest check comes after it. *)
let setup_daemon cfg ~store ~sock ?access_log () =
  ignore (fresh_dir store);
  let warm = cfg.workload = "serve-warm" in
  let t0 = Clock.now_ns () in
  if warm then
    Proc.run
      ~env:[ ("SPEEDUP_JOBS", string_of_int cfg.nproc) ]
      ~unset:[ "CERT_CACHE_DIR" ] ~stdout:Unix.stderr cfg.speedup
      [ "atlas"; "build"; "--dir"; store; "--max-n"; string_of_int (atlas_max_n cfg) ];
  let d =
    Daemon.start ~speedup:cfg.speedup ~sock ~store ~workers:cfg.nproc ~jobs:cfg.nproc
      ?access_log ()
  in
  let elapsed = Clock.seconds_between t0 (Clock.now_ns ()) in
  if warm then
    expect ~file:"atlas.txt"
      ~key:(Printf.sprintf "max-n=%d" (atlas_max_n cfg))
      (Golden.dir_digest store) "atlas store digest matches the recorded one";
  (d, elapsed)

let stat_int j path =
  to_int (List.fold_left (fun j k -> member k j) j path)

let access_log_metrics ~path ~latency_ms =
  let queue = ref [] and compute = ref [] and transport = ref [] in
  String.split_on_char '\n' (read_file path)
  |> List.iter (fun line ->
         if line <> "" then
           match Jsonl.of_string line with
           | Ok j -> (
               match Jsonl.member "id" j with
               | Some (Jsonl.Int id) when id >= 0 && id < Array.length latency_ms ->
                   let q = to_float (member "queue_ms" j) and w = to_float (member "wall_ms" j) in
                   queue := q :: !queue;
                   compute := (w -. q) :: !compute;
                   transport := (latency_ms.(id) -. w) :: !transport
               | _ -> ())
           | Error _ -> ());
  let pct xs p = if xs = [] then 0. else Stats.percentile (Stats.sorted xs) p in
  metric "server.queue_p50_ms" (pct !queue 50.);
  metric "server.queue_p99_ms" (pct !queue 99.);
  metric "server.compute_p50_ms" (pct !compute 50.);
  metric "server.compute_p99_ms" (pct !compute 99.);
  metric "server.transport_p50_ms" (pct !transport 50.)

let serve cfg =
  let store = Filename.concat cfg.work "store" in
  let sock = Filename.concat cfg.work "d.sock" in
  let access_log = Filename.concat cfg.work "access.jsonl" in
  let grid = grid_of_name (grid_name cfg) in
  let reqs = Draw.draw ~seed:cfg.seed grid (request_count cfg) in
  let setups = if cfg.trace || cfg.smoke then 1 else if cfg.workload = "serve-warm" then 2 else 15 in
  let setup = ref [] in
  let rec prepare k =
    let d, s =
      setup_daemon cfg ~store ~sock
        ?access_log:(if cfg.trace && k = 1 then Some access_log else None)
        ()
    in
    setup := s :: !setup;
    if k = 1 then d
    else begin
      Daemon.stop d;
      prepare (k - 1)
    end
  in
  let d = prepare setups in
  let out = Loadgen.run ~sock ~clients:cfg.nproc reqs in
  let stats = Daemon.stats d in
  let hwm =
    match Proc.peak_rss_mb (Daemon.pid d) with Some m -> m | None -> fail "no VmHWM for the daemon"
  in
  Daemon.stop d;
  let n = Array.length reqs in
  let lat = Array.to_list out.latency_ms in
  let sorted = Stats.sorted lat in
  metric "wall_s" out.wall_s;
  metric "setup_s" (Stats.median !setup) ~samples:!setup;
  metric "qps" (float_of_int n /. out.wall_s);
  metric "p50_ms" (Stats.percentile sorted 50.) ~samples:lat;
  metric "p99_ms" (Stats.percentile sorted 99.) ~samples:lat;
  metric "peak_rss_mb" hwm;
  (* When the first pass over the grid — every cold request — is done. *)
  metric "first_pass_s"
    (Array.fold_left Float.max 0. (Array.sub out.done_s 0 (List.length grid)));
  add_counts ~attempted:n ~failed:out.failed "replies";
  let g = golden "replies.txt" in
  let keys = List.sort_uniq compare (Array.to_list (Array.map (fun r -> r.Draw.key) reqs)) in
  List.iter
    (fun key ->
      match Hashtbl.find_opt out.first_body key with
      | None -> check false ("a reply for " ^ key)
      | Some body ->
          check
            (Hashtbl.find_opt g key = Some (Golden.md5 body))
            ("reply to " ^ key ^ " matches the recorded one"))
    keys;
  if cfg.workload = "serve-warm" then begin
    check (stat_int stats [ "memo"; "enumerations" ] = 0) "warm daemon did no enumeration";
    check (stat_int stats [ "store"; "writes" ] = 0) "warm daemon wrote no certificate"
  end;
  if cfg.trace then begin
    access_log_metrics ~path:access_log ~latency_ms:out.latency_ms;
    List.iter
      (fun cls ->
        let xs = List.filteri (fun i _ -> reqs.(i).Draw.cls = cls) lat in
        if xs <> [] then begin
          metric (Printf.sprintf "server.%s.p50_ms" cls) (Stats.median xs);
          metric (Printf.sprintf "server.%s.count" cls) (float_of_int (List.length xs))
        end)
      Draw.classes;
    pool_metrics (member "pool" stats);
    memo_ratio (member "memo" stats);
    metric "closure.enumerations_daemon" (float_of_int (stat_int stats [ "memo"; "enumerations" ]));
    metric "cert.store_hits" (float_of_int (stat_int stats [ "store"; "hits" ]));
    metric "cert.store_misses" (float_of_int (stat_int stats [ "store"; "misses" ]));
    metric "cert.store_writes" (float_of_int (stat_int stats [ "store"; "writes" ]));
    (* Cert pass over the store the daemon served from. *)
    let cert_out = Filename.concat cfg.work "cert.json" in
    child cfg
      [
        "cert"; "--store"; store; "--scratch"; fresh_dir (Filename.concat cfg.work "cert-scratch");
        "--result"; cert_out; "--spans"; spans_file cfg "cert";
      ];
    let c = Layers.of_json (json_file cert_out) in
    add_counts ~attempted:c.attempted ~failed:c.failed "store certificates";
    List.iter (fun (k, v) -> metric k v) c.metrics;
    let closure_traced, closure_untraced = closure_layers cfg ~certs:false ~groups:(grid_name cfg) in
    (* Wire replay, untraced then traced, each in a fresh process on a
       store in the state the daemon found it. *)
    let wire ~trace =
      let out = Filename.concat cfg.work (Printf.sprintf "wire%d.json" trace) in
      let st =
        if cfg.workload = "serve-warm" then store
        else fresh_dir (Filename.concat cfg.work (Printf.sprintf "wire-store%d" trace))
      in
      child cfg ~store:st
        [
          "wire"; "--grid"; grid_name cfg; "--seed"; string_of_int cfg.seed; "--n";
          string_of_int n; "--trace"; string_of_int trace; "--result"; out;
          "--spans"; spans_file cfg "wire";
        ];
      Layers.of_json (json_file out)
    in
    let w0 = wire ~trace:0 in
    let w1 = wire ~trace:1 in
    add_counts ~attempted:(w0.attempted + w1.attempted) ~failed:(w0.failed + w1.failed)
      "wire replay replies";
    List.iter (fun (k, v) -> metric k v) w1.metrics;
    metric "trace.overhead_frac"
      (((closure_traced +. w1.wall_s) /. (closure_untraced +. w0.wall_s)) -. 1.)
  end

(* ---- children ---- *)

let arg args k =
  let rec go = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let req_arg args k = match arg args k with Some v -> v | None -> fail "child: missing %s" k

let write_json path j =
  Out_channel.with_open_bin path (fun oc -> output_string oc (Jsonl.to_string j))

let groups_of_name = function
  | "tables" -> Instances.tables_replay ()
  | "smoke-tables" ->
      List.filter
        (fun (g : Instances.group) -> String.length g.label > 2 && String.sub g.label 0 3 = "e6 ")
        (Instances.tables ())
  | g -> Instances.of_requests (grid_of_name g)

let child_main = function
  | "probe" :: args ->
      let first = Clock.now_ns () in
      write_json (req_arg args "--result") (Jsonl.Obj [ ("first_ns", Jsonl.Int first) ])
  | "tables" :: args ->
      let entries =
        match arg args "--only" with
        | None -> Suite.all
        | Some ids ->
            let ids = String.split_on_char ',' ids in
            List.filter (fun e -> List.mem e.Suite.id ids) Suite.all
      in
      let first = Clock.now_ns () in
      let rows =
        List.map
          (fun e ->
            let a = Clock.now_ns () in
            let tables = e.Suite.run () in
            (e.Suite.id, a, Clock.now_ns (), tables))
          entries
      in
      let tables = List.concat_map (fun (_, _, _, t) -> t) rows in
      Suite.print_tables tables;
      flush stdout;
      let stop = Clock.now_ns () in
      let p = Pool.stats () and m = Closure.memo_stats () in
      write_json (req_arg args "--result")
        (Jsonl.Obj
           [
             ("first_ns", Jsonl.Int first);
             ("stop_ns", Jsonl.Int stop);
             ( "experiments",
               Jsonl.List
                 (List.map
                    (fun (id, a, b, _) -> Jsonl.List [ Jsonl.String id; Jsonl.Int a; Jsonl.Int b ])
                    rows) );
             ("oks", Jsonl.List (List.map (fun t -> Jsonl.Bool t.Report.ok) tables));
             ( "peak_rss_mb",
               match Proc.self_peak_rss_mb () with
               | Some m -> Jsonl.Float m
               | None -> fail "no VmHWM for the tables process" );
             ( "pool",
               Jsonl.Obj
                 [
                   ("batches", Jsonl.Int p.Pool.batches);
                   ("chunks", Jsonl.Int p.Pool.chunks);
                   ("items", Jsonl.Int p.Pool.items);
                   ("steals", Jsonl.Int p.Pool.steals);
                 ] );
             ( "memo",
               Jsonl.Obj [ ("hits", Jsonl.Int m.Closure.hits); ("misses", Jsonl.Int m.Closure.misses) ] );
           ])
  | "closure" :: args ->
      Pool.set_jobs (Some 1);
      let groups = groups_of_name (req_arg args "--groups") in
      let result =
        match req_arg args "--mode" with
        | "ref" -> Layers.closure_reference groups
        | "plain" -> Layers.closure_replay groups
        | _ ->
            Trace.set_enabled true;
            let r = Layers.closure_replay groups in
            let replay = Layers.replay_metrics () in
            (* --scratch: also run the cert pass, in that scratch store,
               over certificates built untraced after the timed replay. *)
            let c =
              Option.map
                (fun scratch ->
                  Trace.set_enabled false;
                  let certs = Layers.closure_certs groups in
                  Trace.set_enabled true;
                  Layers.cert_of_certs certs ~scratch)
                (arg args "--scratch")
            in
            Trace.write_jsonl (req_arg args "--spans") (Trace.spans ());
            {
              r with
              metrics = replay @ (match c with Some c -> c.metrics | None -> []);
              attempted = (match c with Some c -> c.attempted | None -> 0);
              failed = (match c with Some c -> c.failed | None -> 0);
            }
      in
      write_json (req_arg args "--result") (Layers.to_json result)
  | "cert" :: args ->
      Pool.set_jobs (Some 1);
      Trace.set_enabled true;
      let r = Layers.cert_of_store (req_arg args "--store") ~scratch:(req_arg args "--scratch") in
      Trace.write_jsonl (req_arg args "--spans") (Trace.spans ());
      write_json (req_arg args "--result") (Layers.to_json r)
  | "wire" :: args ->
      Pool.set_jobs (Some 1);
      let trace = req_arg args "--trace" = "1" in
      Trace.set_enabled trace;
      let reqs =
        Draw.draw ~seed:(int_of_string (req_arg args "--seed"))
          (grid_of_name (req_arg args "--grid"))
          (int_of_string (req_arg args "--n"))
      in
      let r = Layers.wire_replay reqs ~golden:(Golden.load (Filename.concat golden_dir "replies.txt")) in
      if trace then Trace.write_jsonl (req_arg args "--spans") (Trace.spans ());
      write_json (req_arg args "--result") (Layers.to_json r)
  | _ -> fail "child: unknown kind"

(* ---- output ---- *)

let unit_of name =
  let ends s = Filename.check_suffix name s in
  if ends "_ms" then "ms"
  else if ends "_s" then "s"
  else if ends "_mw" then "Mwords"
  else if ends "_mb" then "MiB"
  else if ends "_ratio" || ends "_frac" then "ratio"
  else if ends "_bytes" then "bytes"
  else if name = "qps" then "1/s"
  else "count"

let git_describe () =
  match Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |] with
  | exception Unix.Unix_error _ -> "none"
  | ic ->
      let d = try String.trim (input_line ic) with End_of_file -> "none" in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> d | _ -> "none")

let print_result cfg ~requests =
  let metrics = List.rev report.metrics in
  (* The timed phase's configuration: tables is one jobs=1 process. *)
  let serving = if cfg.workload = "tables" then 0 else cfg.nproc in
  let detail =
    Jsonl.Obj
      [
        ( "config",
          Jsonl.Obj
            [
              ("workload", Jsonl.String cfg.workload);
              ("git", Jsonl.String (git_describe ()));
              ("nproc", Jsonl.Int cfg.nproc);
              ("ocaml", Jsonl.String Sys.ocaml_version);
              ("jobs", Jsonl.Int (max 1 serving));
              ("workers", Jsonl.Int serving);
              ("clients", Jsonl.Int serving);
              ("seed", Jsonl.Int cfg.seed);
              ("seconds", Jsonl.Int cfg.seconds);
              ("requests", Jsonl.Int requests);
              ("trace", Jsonl.Bool cfg.trace);
              ("smoke", Jsonl.Bool cfg.smoke);
            ] );
        ( "metrics",
          Jsonl.Obj
            (List.map
               (fun (name, v, samples) ->
                 let spread =
                   match samples with
                   | [] | [ _ ] -> []
                   | xs ->
                       let q1, _, q3 = Stats.quartiles xs in
                       [ ("n", Jsonl.Int (List.length xs)); ("q1", Jsonl.Float q1); ("q3", Jsonl.Float q3) ]
                 in
                 (name, Jsonl.Obj ((("value", Jsonl.Float v) :: ("unit", Jsonl.String (unit_of name)) :: spread))))
               metrics) );
        ("failed_frac", Jsonl.Float (float_of_int report.failed /. float_of_int (max 1 report.attempted)));
        ("notes", Jsonl.List (List.rev_map (fun s -> Jsonl.String s) report.notes));
      ]
  in
  print_endline ("perfbench: " ^ Jsonl.to_string detail);
  let wanted = spec_metrics (if cfg.trace then "per_layer" else "end_to_end") in
  let final =
    List.map
      (fun (name, u) ->
        match List.find_opt (fun (n, _, _) -> n = name) metrics with
        | Some (_, v, _) -> (name, Jsonl.Obj [ ("value", Jsonl.Float v); ("unit", Jsonl.String u) ])
        | None -> fail "metric %s was not measured" name)
      wanted
  in
  print_endline
    (Jsonl.to_string
       (Jsonl.Obj
          [
            ("correct", Jsonl.Bool (report.failed = 0));
            ("attempted", Jsonl.Int (max 1 report.attempted));
            ("failed", Jsonl.Int report.failed);
            ("metrics", Jsonl.Obj final);
          ]))

let usage () =
  prerr_endline
    "usage: main.exe --workload tables|serve-cold|serve-warm --seed N --seconds S \
     --trace 0|1 [--smoke]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "child" :: rest -> child_main rest
  | _ :: args ->
      let flag k = List.mem k args in
      let get k = arg args k in
      let workload = match get "--workload" with Some w -> w | None -> usage () in
      if not (List.mem workload [ "tables"; "serve-cold"; "serve-warm" ]) then usage ();
      let seed = match get "--seed" with Some s -> int_of_string s | None -> usage () in
      let seconds = match get "--seconds" with Some s -> int_of_string s | None -> 10 in
      let self =
        if Filename.is_relative Sys.executable_name then
          Filename.concat (Sys.getcwd ()) Sys.executable_name
        else Sys.executable_name
      in
      let nproc = Proc.nproc () in
      let work =
        Printf.sprintf "perfbench/_work/%s-%d" workload (Unix.getpid ())
      in
      (try Unix.mkdir "perfbench/_work" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      ignore (fresh_dir work);
      let cfg =
        {
          workload; seed; seconds; trace = get "--trace" = Some "1"; smoke = flag "--smoke";
          (* The CLI is built next to the benchmark: <build>/bin/main.exe. *)
          speedup = Filename.concat (Filename.dirname (Filename.dirname self)) "bin/main.exe";
          self; nproc; work;
        }
      in
      Fun.protect
        ~finally:(fun () -> Proc.kill_all (); rm_rf work)
        (fun () ->
          if workload = "tables" then tables cfg else serve cfg;
          print_result cfg
            ~requests:(if workload = "tables" then 0 else request_count cfg))
  | [] -> usage ()

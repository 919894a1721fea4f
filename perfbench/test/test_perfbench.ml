(* Tests for the benchmark itself (perfbench/): the percentile rule,
   quartiles as Python computes them, self-time arithmetic on a
   synthetic span tree, the determinism of the seeded draw, and a
   smoke-sized run of each workload that must pass its output checks. *)

open Perfbench

let float = Alcotest.float 1e-9

(* ---- percentiles ---- *)

let test_percentile_rule () =
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stats.min_samples_for 99.);
  Alcotest.(check bool) "999 samples: 9 beyond p99" false (Stats.tail_supported ~n:999 99.);
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Stats.beyond ~n:1000 99.);
  Alcotest.(check int) "p50 of 20 needs its 10" 10 (Stats.beyond ~n:20 50.);
  let xs = Stats.sorted (List.init 1000 (fun i -> float_of_int (1000 - i))) in
  Alcotest.check float "p99 of 1..1000" 990. (Stats.percentile xs 99.);
  Alcotest.check float "p50 of 1..1000" 500. (Stats.percentile xs 50.);
  Alcotest.check float "median is a sample" 2. (Stats.median [ 3.; 1.; 2. ])

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check float "q1" 2.75 q1;
  Alcotest.check float "q2" 5.5 q2;
  Alcotest.check float "q3" 8.25 q3;
  (* statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] *)
  let q1, q2, q3 = Stats.quartiles [ 5.; 1. ] in
  Alcotest.check float "two samples q1" 0. q1;
  Alcotest.check float "two samples q2" 3. q2;
  Alcotest.check float "two samples q3" 6. q3

(* ---- self time ---- *)

let span id ?(parent = -1) ?(alloc = 0.) name start_ns stop_ns =
  { Trace.id; name; parent; req = 7; start_ns; stop_ns; alloc_w = alloc }

let test_self_time () =
  (* root [0,100] with children a [10,30] and b [20,50] (overlapping:
     covered [10,50]) and c [90,120] (clipped to [90,100]); a has a
     grandchild g [12,14]. *)
  let spans =
    [
      span 0 "root" 0 100 ~alloc:100.;
      span 1 ~parent:0 "a" 10 30 ~alloc:30.;
      span 2 ~parent:0 "b" 20 50 ~alloc:20.;
      span 3 ~parent:0 "c" 90 120;
      span 4 ~parent:1 "g" 12 14 ~alloc:5.;
    ]
  in
  let self = Trace.self_ns spans in
  Alcotest.(check int) "root: 100 - [10,50] - [90,100]" 50 (Hashtbl.find self 0);
  Alcotest.(check int) "a: 20 - 2" 18 (Hashtbl.find self 1);
  Alcotest.(check int) "b: no children" 30 (Hashtbl.find self 2);
  Alcotest.(check int) "c" 30 (Hashtbl.find self 3);
  let layers = Trace.by_name (span 5 ~parent:(-1) "a" 200 210 :: spans) in
  let a = List.assoc "a" layers in
  Alcotest.(check int) "a called twice" 2 a.Trace.calls;
  Alcotest.check float "a self: 18 + 10 ns" 28e-9 a.Trace.self_s;
  Alcotest.check float "root self alloc" 50. (List.assoc "root" layers).Trace.self_alloc_w

let test_with_span () =
  Trace.reset ();
  Trace.set_enabled true;
  Trace.with_span ~req:3 "outer" (fun () ->
      Trace.with_span "inner" (fun () -> Trace.count "things" 2);
      Trace.count "things" 1);
  (try Trace.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.set_enabled false;
  Trace.with_span "ignored" (fun () -> Trace.count "things" 100);
  let spans = Trace.spans () in
  Alcotest.(check (list string)) "names in start order" [ "outer"; "inner"; "raises" ]
    (List.map (fun s -> s.Trace.name) spans);
  let outer = List.nth spans 0 and inner = List.nth spans 1 and raised = List.nth spans 2 in
  Alcotest.(check int) "inner's parent" outer.Trace.id inner.Trace.parent;
  Alcotest.(check int) "request id inherited" 3 inner.Trace.req;
  Alcotest.(check int) "a span outside requests" (-1) raised.Trace.req;
  Alcotest.(check int) "counts only while tracing" 3 (Trace.counter "things");
  let self = Trace.self_ns spans in
  Alcotest.(check bool) "self within duration" true
    (Hashtbl.find self outer.Trace.id <= outer.Trace.stop_ns - outer.Trace.start_ns);
  Trace.reset ()

(* ---- the seeded draw ---- *)

let keys a = Array.to_list (Array.map (fun r -> r.Draw.key) a)

let test_draw () =
  let grid = Draw.cold_grid in
  let k = List.length grid in
  let a = Draw.draw ~seed:42 Draw.cold_grid 3000 and b = Draw.draw ~seed:42 Draw.cold_grid 3000 in
  Alcotest.(check (list string)) "same seed, same requests" (keys a) (keys b);
  let c = Draw.draw ~seed:43 Draw.cold_grid 3000 in
  Alcotest.(check bool) "another seed, another order" false (keys a = keys c);
  let grid_keys = List.sort compare (List.map (fun r -> r.Draw.key) grid) in
  Alcotest.(check (list string)) "first pass is the grid in rank order"
    (List.map (fun r -> r.Draw.key) grid)
    (List.filteri (fun i _ -> i < k) (keys a));
  let counts = Draw.zipf_counts ~s:Draw.zipf_s k (3000 - k) in
  Alcotest.(check int) "apportioned exactly" (3000 - k) (Array.fold_left ( + ) 0 counts);
  Alcotest.(check (list string)) "another seed, the same multiset"
    (List.sort compare (keys a)) (List.sort compare (keys c));
  Alcotest.(check bool) "only grid requests" true
    (List.for_all (fun key -> List.mem key grid_keys) (keys a));
  let count key = List.length (List.filter (String.equal key) (keys a)) in
  let first = (List.hd grid).Draw.key and last = (List.nth grid (k - 1)).Draw.key in
  Alcotest.(check bool) "skewed toward rank 1" true (count first > 5 * count last);
  Alcotest.(check int) "38 cold requests" 38 k;
  Alcotest.(check int) "18 atlas cells" 18 (List.length Draw.warm_grid);
  Alcotest.(check string) "line"
    {|{"id": 5, "method": "ping", "params": {}}|}
    (Draw.line ~id:5 (List.find (fun r -> r.Draw.cls = "ping") grid))

let test_shared_requests () =
  (* A request in both grids renders identically, so the two workloads
     are checked against the same recorded reply. *)
  let cold = List.map (fun r -> r.Draw.key) Draw.cold_grid in
  let shared = List.filter (fun r -> List.mem r.Draw.key cold) Draw.warm_grid in
  Alcotest.(check int) "immediate cells shared with serve-cold" 7 (List.length shared)

(* ---- smoke runs ---- *)

(* The benchmark resolves BENCHMARK.json, perfbench/golden and the CLI
   from the repository root; under dune that is _build/default. *)
let root = Filename.concat (Sys.getcwd ()) "../.."

let smoke workload trace () =
  let out = Filename.temp_file "perfbench-smoke" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let args =
    [| "perfbench/main.exe"; "--workload"; workload; "--seed"; "3"; "--seconds"; "1";
       "--trace"; string_of_int trace; "--smoke" |]
  in
  let cwd = Sys.getcwd () in
  Sys.chdir root;
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () -> Unix.create_process args.(0) args Unix.stdin fd Unix.stderr)
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (In_channel.with_open_bin out In_channel.input_all))
  in
  Sys.remove out;
  let last = List.nth lines (List.length lines - 1) in
  match Jsonl.of_string last with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let get k = Option.get (Jsonl.member k j) in
      Alcotest.(check (option bool)) "correct" (Some true) (Jsonl.to_bool (get "correct"));
      Alcotest.(check (option int)) "failed" (Some 0) (Jsonl.to_int (get "failed"));
      Alcotest.(check bool) "attempted" true (Option.get (Jsonl.to_int (get "attempted")) > 0);
      Alcotest.(check (list string)) "exactly the keys" [ "correct"; "attempted"; "failed"; "metrics" ]
        (match j with Jsonl.Obj l -> List.map fst l | _ -> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time on a span tree" `Quick test_self_time;
          Alcotest.test_case "with_span nesting" `Quick test_with_span;
        ] );
      ( "draw",
        [
          Alcotest.test_case "deterministic for a seed" `Quick test_draw;
          Alcotest.test_case "shared requests" `Quick test_shared_requests;
        ] );
      ( "smoke",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " untraced") `Quick (smoke w 0);
              Alcotest.test_case (w ^ " traced") `Quick (smoke w 1);
            ])
          [ "tables"; "serve-cold"; "serve-warm" ] );
    ]

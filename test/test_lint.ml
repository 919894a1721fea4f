(* Tests for speedup-lint (tools/lint), driven through the built
   executable: each rule R1–R7 on a good and a bad fixture with exact
   (rule, line) diagnostics, scope boundaries, the three suppression
   forms, the baseline mechanism, and the CLI exit codes.  The linter
   reads typed trees, so the fixtures under test/lint_fixtures/ are
   compiled to .cmt at test time with ocamlc -bin-annot; the ones that
   name Simplex, Value or Algebra compile against the minimal stand-ins
   in lint_fixtures/stubs/.

   The linter links compiler-libs, whose cmi directory shadows module
   names like [Closure]; driving the executable keeps the test binary
   free of that include path. *)

(* Anchor on the test binary so the paths work from any cwd (both
   `dune runtest` and `dune exec test/main.exe`). *)
let test_dir = Filename.dirname Sys.executable_name
let exe = Filename.concat test_dir "../tools/lint/main.exe"

(* Runs the linter and returns (exit code, stdout lines). *)
let run_lint args =
  let cmd =
    String.concat " " (Filename.quote exe :: List.map Filename.quote args)
  in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, List.rev !lines)

(* Under `dune runtest` the fixtures are materialized next to the test
   binary; under `dune exec` only the binary is built, so fall back to
   the source tree (_build/default/test → three levels up). *)
let fixtures_dir =
  let candidates =
    [
      Filename.concat test_dir "lint_fixtures";
      Filename.concat test_dir "../../../test/lint_fixtures";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> List.hd candidates

let fixture name = Filename.concat fixtures_dir name

(* A fresh temporary directory, removed when the test binary exits. *)
let scratch_dir () =
  let dir = Filename.temp_file "lint_cmt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)));
  dir

(* Copies the fixtures [names] (paths under lint_fixtures/) into a
   fresh scratch directory and compiles them there with ocamlc
   -bin-annot, in list order, so dependencies go first.  Returns the
   directory, which then holds one .cmt per fixture. *)
let compile_fixtures names =
  let dir = scratch_dir () in
  List.iter
    (fun name ->
      let ic = open_in_bin (fixture name) in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dir (Filename.basename name)) in
      output_string oc src;
      close_out oc)
    names;
  let cmd =
    Printf.sprintf "cd %s && ocamlc -I +unix -bin-annot -c %s 2>&1"
      (Filename.quote dir)
      (String.concat " "
         (List.map (fun n -> Filename.quote (Filename.basename n)) names))
  in
  let ic = Unix.open_process_in cmd in
  let out = ref [] in
  (try
     while true do
       out := input_line ic :: !out
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ ->
      Alcotest.failf "fixture compilation failed:\n%s"
        (String.concat "\n" (List.rev !out)));
  dir

(* The single-module fixtures, compiled once into one directory; each
   run lints one .cmt from it. *)
let compiled =
  lazy
    (compile_fixtures
       ([ "stubs/simplex.ml"; "stubs/value.ml"; "stubs/algebra.ml" ]
       @ [
           "r1_bad.ml"; "r1_dls.ml"; "r1_good.ml"; "r2_alias_bad.ml";
           "r2_alias_good.ml"; "r2_bad.ml"; "r2_good.ml"; "r3_bad.ml";
           "r3_good.ml"; "r4_bad.ml"; "r4_good.ml"; "r5_bad.ml";
           "r5_good.ml"; "r5_server.ml"; "r6_algebra_bad.ml";
           "r6_algebra_good.ml"; "r6_bad.ml"; "r6_good.ml";
           "suppress_file.ml"; "suppress_inline.ml";
         ]))

(* Lints the compiled fixture [name] as if its source lived in the
   logical repository directory [dir], which drives rule scoping. *)
let lint ?(args = []) ~dir name =
  let cmt = Filename.chop_suffix name ".ml" ^ ".cmt" in
  run_lint
    (args @ [ "--as"; dir; Filename.concat (Lazy.force compiled) cmt ])

(* Parses "file:line:col: [RULE] message" diagnostic lines, skipping
   the informational "speedup-lint:" ones. *)
let rule_lines lines =
  List.filter_map
    (fun line ->
      match String.split_on_char ':' line with
      | _file :: lnum :: _rest when not (String.length line = 0) -> (
          match (int_of_string_opt lnum, String.index_opt line '[') with
          | Some n, Some i -> (
              match String.index_opt line ']' with
              | Some j when j > i ->
                  Some (String.sub line (i + 1) (j - i - 1), n)
              | _ -> None)
          | _ -> None)
      | _ -> None)
    lines

let check_run label ~expected_code expected (code, lines) =
  Alcotest.(check int) (label ^ ": exit code") expected_code code;
  Alcotest.(check (list (pair string int))) label expected (rule_lines lines)

let test_r1 () =
  (* The cell is type-annotated and read with no lock on line 2, so R7
     reports that read wherever R1 reports the cell. *)
  check_run "bad: top-level Hashtbl in pool-reachable lib" ~expected_code:1
    [ ("R1", 1); ("R7", 2) ]
    (lint ~dir:"lib/models/" "r1_bad.ml");
  check_run "good: Atomic + function-local ref" ~expected_code:0 []
    (lint ~dir:"lib/models/" "r1_good.ml");
  (* Reachability inference put every lib/ directory in the
     pool-reachable set (the whole library tree feeds Pool callbacks
     through Solvability.decide / Adversary.check_task), so the R1
     scope boundary is now lib/ vs bench/bin/tools. *)
  check_run "out of scope: same code in bench" ~expected_code:0 []
    (lint ~dir:"bench/" "r1_bad.ml");
  (* Domain.DLS keys are per-domain caches by construction: no data
     race, but a coherence hazard unless deliberately designed — each
     one needs a reasoned [@lint.allow], like the intern id blocks and
     front caches carry. *)
  check_run "bad: bare DLS key in pool-reachable lib" ~expected_code:1
    [ ("R1", 1) ]
    (lint ~dir:"lib/closure/" "r1_dls.ml");
  check_run "pool itself is pool-reachable" ~expected_code:1
    [ ("R1", 1) ]
    (lint ~dir:"lib/parallel/" "r1_dls.ml")

let test_r2 () =
  check_run "bad: unsorted Hashtbl.fold into a list" ~expected_code:1
    [ ("R2", 1) ]
    (lint ~dir:"lib/runtime/" "r2_bad.ml");
  check_run "good: sorted fold + commutative fold" ~expected_code:0 []
    (lint ~dir:"lib/runtime/" "r2_good.ml");
  (* Iterators are recognised by their declaration in hashtbl.mli, so
     neither an alias nor a Hashtbl.Make instance named other than
     *.Tbl hides them. *)
  check_run "bad: folds through an alias and a functor instance"
    ~expected_code:1
    [ ("R2", 4); ("R2", 5) ]
    (lint ~dir:"lib/runtime/" "r2_alias_bad.ml");
  check_run "good: the same folds sorted or commutative" ~expected_code:0 []
    (lint ~dir:"lib/runtime/" "r2_alias_good.ml")

let test_r3 () =
  check_run "bad: Mutex.lock without Fun.protect" ~expected_code:1
    [ ("R3", 4) ]
    (lint ~dir:"lib/parallel/" "r3_bad.ml");
  check_run "good: Fun.protect and Mutex.protect" ~expected_code:0 []
    (lint ~dir:"lib/parallel/" "r3_good.ml")

let test_r4 () =
  check_run "bad: poly comparator lambda + bare compare" ~expected_code:1
    [ ("R4", 2); ("R4", 4) ]
    (lint ~dir:"lib/topology/" "r4_bad.ml");
  check_run "good: Int.compare keys, Simplex.compare projection"
    ~expected_code:0 []
    (lint ~dir:"lib/topology/" "r4_good.ml");
  (* The bare-comparator limb only applies in the dedicated layer. *)
  check_run "out of scope: bare compare outside topology/frac"
    ~expected_code:0 []
    (lint ~dir:"lib/core/" "r4_bad.ml")

let test_r5 () =
  check_run "bad: ambient Random + wall clock" ~expected_code:1
    [ ("R5", 1); ("R5", 2) ]
    (lint ~dir:"lib/solver/" "r5_bad.ml");
  check_run "good: caller-seeded Random.State" ~expected_code:0 []
    (lint ~dir:"lib/solver/" "r5_good.ml");
  check_run "exempt: same code in bench/" ~expected_code:0 []
    (lint ~dir:"bench/" "r5_bad.ml");
  (* lib/server: the config-level allowlist (lint_config.r5_allowlist,
     documented in docs/LINT.md) admits exactly the wall-clock read the
     deadline logic needs; every other banned ident still fires. *)
  check_run "server scope: allowlisted clock passes, Random fires"
    ~expected_code:1
    [ ("R5", 1) ]
    (lint ~dir:"lib/server/" "r5_bad.ml");
  check_run "server scope: Sys.time is not allowlisted" ~expected_code:1
    [ ("R5", 2) ]
    (lint ~dir:"lib/server/" "r5_server.ml");
  check_run "solver scope: the allowlist does not leak" ~expected_code:1
    [ ("R5", 1); ("R5", 2) ]
    (lint ~dir:"lib/solver/" "r5_server.ml")

let test_r6 () =
  check_run "bad: structural ops on interned Value" ~expected_code:1
    [ ("R6", 1); ("R6", 2); ("R6", 3) ]
    (lint ~dir:"lib/models/" "r6_bad.ml");
  check_run "good: Value.equal/hash/compare + scalar projections"
    ~expected_code:0 []
    (lint ~dir:"lib/models/" "r6_good.ml");
  (* Inside lib/topology the structural walk is the implementation. *)
  check_run "out of scope: same code in lib/topology" ~expected_code:0 []
    (lint ~dir:"lib/topology/" "r6_bad.ml");
  (* bench/bin/tools build interned values too; R6 follows them. *)
  check_run "bench is in scope for R6" ~expected_code:1
    [ ("R6", 1); ("R6", 2); ("R6", 3) ]
    (lint ~dir:"bench/" "r6_bad.ml")

(* The algebra sub-library: its own entry in [parallel_reachable]
   (nested-directory classification) and [interned_modules]. *)
let test_algebra_scope () =
  check_run "R1 applies inside lib/models/algebra" ~expected_code:1
    [ ("R1", 1); ("R7", 2) ]
    (lint ~dir:"lib/models/algebra/" "r1_bad.ml");
  (* An unlisted nested directory inherits the parent tree's scope. *)
  check_run "unlisted nested dir inherits lib/models scope" ~expected_code:1
    [ ("R1", 1); ("R7", 2) ]
    (lint ~dir:"lib/models/viz/" "r1_bad.ml");
  check_run "bad: structural ops on interned Algebra terms" ~expected_code:1
    [ ("R6", 1); ("R6", 2); ("R6", 3) ]
    (lint ~dir:"lib/closure/" "r6_algebra_bad.ml");
  check_run "good: Algebra.equal/compare + scalar projections"
    ~expected_code:0 []
    (lint ~dir:"lib/closure/" "r6_algebra_good.ml");
  check_run "out of scope: structural Algebra ops in lib/topology"
    ~expected_code:0 []
    (lint ~dir:"lib/topology/" "r6_algebra_bad.ml")

let test_suppressions () =
  check_run "binding and expression [@lint.allow]" ~expected_code:0 []
    (lint ~dir:"lib/models/" "suppress_inline.ml");
  check_run "floating [@@@lint.allow] silences the file" ~expected_code:0 []
    (lint ~dir:"lib/solver/" "suppress_file.ml")

let contains_substring needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_mentions label needle lines =
  Alcotest.(check bool) label true
    (List.exists (contains_substring needle) lines)

let test_baseline () =
  (* A matching baseline entry absorbs the finding: exit goes green. *)
  let code, lines =
    lint ~args:[ "--baseline"; fixture "baseline_r2.json" ] ~dir:"lib/runtime/"
      "r2_bad.ml"
  in
  check_run "baselined finding is not live" ~expected_code:0 [] (code, lines);
  check_mentions "baselined count reported"
    "1 finding(s) covered by the baseline" lines;
  (* A basename entry matches a path-qualified diagnostic ('/'-boundary
     suffix), so per-directory and whole-tree runs agree. *)
  let code, lines =
    lint
      ~args:[ "--baseline"; fixture "baseline_short.json" ]
      ~dir:"lib/runtime/" "r2_bad.ml"
  in
  check_run "suffix path match" ~expected_code:0 [] (code, lines);
  check_mentions "suffix match reported" "covered by the baseline" lines;
  (* Entries that no longer match anything are reported stale. *)
  let code, lines =
    lint ~args:[ "--baseline"; fixture "baseline_r2.json" ] ~dir:"lib/runtime/"
      "r2_good.ml"
  in
  Alcotest.(check int) "stale-only run stays green" 0 code;
  check_mentions "stale entry reported" "stale baseline entry R2" lines;
  (* Baselines never mask a different line. *)
  let code, lines =
    lint
      ~args:[ "--baseline"; fixture "baseline_wrong.json" ]
      ~dir:"lib/runtime/" "r2_bad.ml"
  in
  check_run "wrong line stays live" ~expected_code:1 [ ("R2", 1) ] (code, lines)

let test_emit_and_json () =
  let code, lines =
    lint ~args:[ "--emit-baseline" ] ~dir:"lib/runtime/" "r2_bad.ml"
  in
  Alcotest.(check int) "--emit-baseline exits 0" 0 code;
  check_mentions "emitted entry names the rule" {|"rule": "R2"|} lines;
  check_mentions "emitted entry names the file" "r2_bad.ml" lines;
  let code, lines =
    lint ~args:[ "--format"; "json" ] ~dir:"lib/solver/" "r5_bad.ml"
  in
  Alcotest.(check int) "--format json still exits 1" 1 code;
  check_mentions "json output names the rule" {|"rule": "R5"|} lines;
  check_mentions "json output carries the line" {|"line": 1|} lines

let test_rules_filter () =
  (* r5_bad has two findings; restricting to R1 silences both. *)
  check_run "--rules filters findings" ~expected_code:0 []
    (lint ~args:[ "--rules"; "R1" ] ~dir:"lib/solver/" "r5_bad.ml")

(* A .cmt that fails to load is a finding, not "nothing to lint"; only
   roots with no .cmt at all are a usage error. *)
let test_unreadable_cmt () =
  let dir = scratch_dir () in
  let empty = run_lint [ dir ] in
  Alcotest.(check int) "no .cmt at all: exit 2" 2 (fst empty);
  let oc = open_out_bin (Filename.concat dir "bad.cmt") in
  output_string oc "not a cmt";
  close_out oc;
  let code, lines = run_lint [ dir ] in
  check_run "corrupt .cmt fails the run" ~expected_code:1 [ ("lint", 0) ]
    (code, lines);
  check_mentions "load failure is reported" "cannot read cmt" lines

let test_r7_typed () =
  (* Consistent locksets — Mutex.protect, a lock alias, and
     Mutex.lock + Fun.protect all resolve to the same mutex. *)
  let dir = compile_fixtures [ "r7_good/good.ml" ] in
  check_run "good: consistent locksets (incl. alias)" ~expected_code:0 []
    (run_lint [ "--as"; "lib/closure/"; "--rules"; "R7"; dir ]);
  (* The type-annotated cell and the Hashtbl.Make instance are cells
     with a verdict: a shadowing parameter is not an access, and a
     local callback passed by name to Mutex.protect holds the lock. *)
  let _, verdicts = run_lint [ "--as"; "lib/closure/"; "--locks"; dir ] in
  List.iter
    (fun cell ->
      let line =
        List.find_opt
          (contains_substring (Printf.sprintf {|"cell": "%s"|} cell))
          verdicts
      in
      Alcotest.(check bool)
        (cell ^ " verified under Good.lock")
        true
        (match line with
        | Some l ->
            contains_substring {|"verdict": "verified", "locks": ["Good.lock"]|} l
        | None -> false))
    [ "Good.memo"; "Good.keyed" ];
  (* Seeded violations: empty lockset on [unguarded] (line 11) and a
     lock_a/lock_b split on [split], reported at the access that
     breaks the running intersection (line 13); a named callback that
     is also called directly (line 21) and an unguarded Hashtbl.Make
     instance (line 28). *)
  let dir = compile_fixtures [ "r7_bad/bad.ml" ] in
  let code, lines =
    run_lint [ "--as"; "lib/closure/"; "--rules"; "R7"; dir ]
  in
  check_run "bad: empty and inconsistent locksets" ~expected_code:1
    [ ("R7", 11); ("R7", 13); ("R7", 21); ("R7", 28) ]
    (code, lines);
  check_mentions "empty lockset names the cell" "'Bad.unguarded'" lines;
  check_mentions "inconsistency names both locks" "{Bad.lock_b}" lines;
  check_mentions "inconsistency names the other site" "{Bad.lock_a}" lines

let test_reachability_cross_module () =
  (* work → R7_cross_a.dispatch → Pool.map: the function and its
     directory are inferred pool-reachable across the module
     boundary. *)
  let dir =
    compile_fixtures
      [ "r7_cross_module/r7_cross_a.ml"; "r7_cross_module/r7_cross_b.ml" ]
  in
  let code, lines =
    run_lint [ "--as"; "lib/closure/"; "--reachability"; dir ]
  in
  Alcotest.(check int) "--reachability exits 0" 0 code;
  check_mentions "receiver-forwarding function is reachable"
    "R7_cross_a.dispatch" lines;
  check_mentions "cross-module callback is reachable" "R7_cross_b.work" lines;
  check_mentions "directory projection includes the fixture dir"
    {|"closure"|} lines

(* Nested directories inherit their parent's scope from every scoping
   table, not just parallel_reachable (lint_config.classify consults
   them all). *)
let test_nested_scope () =
  check_run "nested dir under the dedicated layer keeps strict R4"
    ~expected_code:1
    [ ("R4", 2); ("R4", 4) ]
    (lint ~dir:"lib/topology/render/" "r4_bad.ml");
  check_run "nested dir under lib/server inherits the R5 allowlist"
    ~expected_code:1
    [ ("R5", 1) ]
    (lint ~dir:"lib/server/inner/" "r5_bad.ml")

let test_emit_prune () =
  (* --emit-baseline --baseline prunes: entries that still fire are
     kept, entries that no longer fire disappear, and new findings are
     never absorbed. *)
  let code, lines =
    lint
      ~args:[ "--emit-baseline"; "--baseline"; fixture "baseline_r2.json" ]
      ~dir:"lib/runtime/" "r2_bad.ml"
  in
  Alcotest.(check int) "prune keeps a live entry: exit 0" 0 code;
  check_mentions "live entry survives the prune" {|"rule": "R2"|} lines;
  let code, lines =
    lint
      ~args:[ "--emit-baseline"; "--baseline"; fixture "baseline_r2.json" ]
      ~dir:"lib/runtime/" "r2_good.ml"
  in
  Alcotest.(check int) "prune drops a stale entry: exit 0" 0 code;
  Alcotest.(check (list string)) "pruned baseline is empty" [ "[]" ] lines

let suite =
  ( "lint",
    [
      Alcotest.test_case "R1 shared mutable state" `Quick test_r1;
      Alcotest.test_case "R2 hash-order determinism" `Quick test_r2;
      Alcotest.test_case "R3 lock discipline" `Quick test_r3;
      Alcotest.test_case "R4 polymorphic compare" `Quick test_r4;
      Alcotest.test_case "R5 banned nondeterminism" `Quick test_r5;
      Alcotest.test_case "R6 structural ops on interned types" `Quick test_r6;
      Alcotest.test_case "algebra sub-library scoping" `Quick
        test_algebra_scope;
      Alcotest.test_case "inline suppressions" `Quick test_suppressions;
      Alcotest.test_case "baseline load/apply" `Quick test_baseline;
      Alcotest.test_case "emit-baseline and json output" `Quick test_emit_and_json;
      Alcotest.test_case "rules filter" `Quick test_rules_filter;
      Alcotest.test_case "unreadable cmt is reported" `Quick
        test_unreadable_cmt;
      Alcotest.test_case "R7 locksets (typed backend)" `Quick test_r7_typed;
      Alcotest.test_case "cross-module reachability inference" `Quick
        test_reachability_cross_module;
      Alcotest.test_case "nested directory scoping" `Quick test_nested_scope;
      Alcotest.test_case "emit-baseline pruning" `Quick test_emit_prune;
    ] )

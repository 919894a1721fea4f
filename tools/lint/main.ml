(* speedup-lint driver.

   Usage: main.exe [options] <dir|file.cmt>...
   Arguments are directories scanned recursively for the .cmt files
   dune emits (run it from _build/default, as the @lint rule does), or
   single .cmt files.

     --baseline FILE   known findings that do not fail the run
     --format human|json
     --emit-baseline   print a baseline; with --baseline, prune the
                       given baseline to the entries that still fire
     --rules R1,R3     restrict to a subset of rules
     --as P            logical directory for the scanned modules,
                       e.g. --as lib/closure/ for fixtures compiled
                       outside dune
     --check-config    fail on drift between the inferred
                       pool-reachable set and parallel_reachable
     --reachability    print the inferred pool-reachable set as JSON
                       and exit
     --locks           print per-cell lockset verdicts as JSON lines
                       and exit

   Exit codes: 0 clean, 1 findings, 2 usage error or no .cmt found. *)

let usage = "speedup-lint [options] <dir|file.cmt>..."

let () =
  let baseline_path = ref None in
  let format = ref "human" in
  let emit_baseline = ref false in
  let rules = ref None in
  let as_dir = ref None in
  let check_config = ref false in
  let reachability = ref false in
  let locks = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--baseline",
        Arg.String (fun s -> baseline_path := Some s),
        "FILE baseline of known findings" );
      ("--format", Arg.Set_string format, "human|json output format");
      ( "--emit-baseline",
        Arg.Set emit_baseline,
        " print a baseline for the current findings (prunes with \
         --baseline)" );
      ( "--rules",
        Arg.String (fun s -> rules := Some (String.split_on_char ',' s)),
        "R1,R2,... restrict to these rules" );
      ( "--as",
        Arg.String (fun s -> as_dir := Some s),
        "P logical directory for the scanned modules (e.g. lib/closure/)" );
      ( "--check-config",
        Arg.Set check_config,
        " fail on inferred-reachability vs parallel_reachable drift" );
      ( "--reachability",
        Arg.Set reachability,
        " print the inferred pool-reachable set as JSON and exit" );
      ( "--locks",
        Arg.Set locks,
        " print per-cell lockset verdicts as JSON lines and exit" );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !paths = [] then (
    prerr_endline usage;
    exit 2);
  if !format <> "human" && !format <> "json" then (
    prerr_endline "speedup-lint: --format must be human or json";
    exit 2);
  let roots = List.rev !paths in
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then (
        Printf.eprintf "speedup-lint: no such file: %s\n" p;
        exit 2))
    roots;
  let mods, load_diags = Lint_cmt.load ?as_dir:!as_dir roots in
  if mods = [] && load_diags = [] then (
    Printf.eprintf
      "speedup-lint: no .cmt files under %s (run from _build/default after \
       a build)\n"
      (String.concat " " roots);
    exit 2);
  let defs = Lint_callgraph.collect mods in
  let tbl = Lint_callgraph.table defs in
  let reach = Lint_callgraph.reachable defs tbl in
  if !reachability then (
    print_endline (Lint_callgraph.reachability_json defs reach);
    exit 0);
  let r7, verdicts = Lint_lockset.analyze ~mods ~defs ~tbl in
  if !locks then (
    (match verdicts with
    | Jsonl.List items ->
        List.iter (fun o -> print_endline (Jsonl.to_string o)) items
    | other -> print_endline (Jsonl.to_string other));
    exit 0);
  let typed = List.concat_map Lint_cmt.check_module mods in
  (* With no readable module there is no program to infer from: report
     the load failures, not a drift against an empty inference. *)
  let drift =
    if !check_config && mods <> [] then Lint_callgraph.config_drift defs reach
    else []
  in
  let diags =
    List.sort_uniq Lint_diag.compare (load_diags @ typed @ r7 @ drift)
  in
  let diags =
    match !rules with
    | None -> diags
    | Some rs -> List.filter (fun (d : Lint_diag.t) -> List.mem d.rule rs) diags
  in
  let entries =
    match !baseline_path with
    | None -> []
    | Some p -> (
        match Lint_baseline.load p with
        | Ok entries -> entries
        | Error msg ->
            Printf.eprintf "speedup-lint: %s\n" msg;
            exit 2)
  in
  if !emit_baseline then (
    (match !baseline_path with
    | Some _ ->
        (* prune: keep the given baseline's still-matching entries *)
        print_string
          (Lint_baseline.emit_entries (Lint_baseline.prune entries diags))
    | None -> print_string (Lint_baseline.emit diags));
    exit 0);
  let live, baselined, stale = Lint_baseline.apply entries diags in
  (match !format with
  | "json" -> print_endline (Lint_diag.list_to_json live)
  | _ ->
      List.iter (fun d -> print_endline (Lint_diag.to_human d)) live;
      if baselined <> [] then
        Printf.printf "speedup-lint: %d finding(s) covered by the baseline\n"
          (List.length baselined);
      List.iter
        (fun (e : Lint_baseline.entry) ->
          Printf.printf
            "speedup-lint: stale baseline entry %s %s:%d (no longer fires — \
             remove it, or prune with --emit-baseline --baseline)\n"
            e.rule e.file e.line)
        stale;
      if live = [] then
        Printf.printf "speedup-lint: %d module(s) clean\n" (List.length mods));
  exit (if live = [] then 0 else 1)

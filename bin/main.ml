(* speedup — command-line front end to the reproduction.

   Subcommands: experiment, complex, solve, closure, model, run-algo,
   list, cert, serve, query. *)

open Cmdliner

let model_conv =
  let parse s =
    match Model.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown model %S" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Model.name m))

let frac_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ n ] -> (
        match int_of_string_opt n with
        | Some n -> Ok (Frac.of_int n)
        | None -> Error (`Msg "bad fraction"))
    | [ n; d ] -> (
        match (int_of_string_opt n, int_of_string_opt d) with
        | Some n, Some d when d <> 0 -> Ok (Frac.make n d)
        | _ -> Error (`Msg "bad fraction"))
    | _ -> Error (`Msg "bad fraction")
  in
  Arg.conv (parse, fun ppf q -> Frac.pp ppf q)

(* ---- experiment ---- *)

let experiment_cmd =
  let id =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ID" ~doc:"Experiment id (e1..e14) or 'all'.")
  in
  let run id =
    let tables =
      if id = "all" then Suite.run_all ()
      else
        match Suite.find id with
        | Some e -> e.Suite.run ()
        | None ->
            Printf.eprintf "unknown experiment %s; try 'speedup list'\n" id;
            exit 2
    in
    Suite.print_tables tables;
    if Suite.all_ok tables then 0 else 1
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run a reproduction experiment (see DESIGN.md).")
    Term.(const run $ id)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Printf.printf "%-4s %s\n" e.Suite.id e.Suite.description)
      Suite.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments.") Term.(const run $ const ())

(* ---- complex ---- *)

let complex_cmd =
  let model =
    Arg.(value & opt model_conv Model.Immediate
         & info [ "model" ] ~docv:"MODEL" ~doc:"collect, snapshot, or immediate.")
  in
  let n = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of processes.") in
  let rounds = Arg.(value & opt int 1 & info [ "rounds"; "t" ] ~doc:"Rounds.") in
  let tas = Arg.(value & flag & info [ "tas" ] ~doc:"Augment IIS with test\\&set.") in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Write the 1-skeleton as Graphviz DOT.")
  in
  let run model n rounds tas dot =
    let sigma = Simplex.of_list (List.init n (fun i -> (i + 1, Value.Int (i + 1)))) in
    let c =
      if tas then
        Augmented.protocol_complex ~box:Black_box.test_and_set
          ~alpha:(Augmented.alpha_const Value.Unit) sigma rounds
      else Model.protocol_complex model sigma rounds
    in
    Format.printf "P^(%d)(σ) in %s%s: %a@." rounds (Model.name model)
      (if tas then "+test&set" else "")
      Complex.pp_stats c;
    (match dot with
    | Some path ->
        Dot.write_file path c;
        Printf.printf "wrote %s\n" path
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "complex" ~doc:"Protocol complex statistics and DOT export.")
    Term.(const run $ model $ n $ rounds $ tas $ dot)

(* ---- solve ---- *)

let task_of ~name ~n ~m ~eps =
  match name with
  | "consensus" -> Consensus.binary ~n
  | "relaxed-consensus" ->
      Consensus.relaxed ~n ~values:[ Value.Int 0; Value.Int 1 ]
  | "aa" -> Approx_agreement.task ~n ~m ~eps
  | "liberal-aa" -> Approx_agreement.liberal ~n ~m ~eps
  | "2set" -> Set_agreement.task ~n ~k:2 ~values:[ Value.Int 0; Value.Int 1; Value.Int 2 ]
  | other -> failwith (Printf.sprintf "unknown task %S" other)

let task_arg =
  Arg.(value & opt string "consensus"
       & info [ "task" ] ~docv:"TASK"
           ~doc:"consensus, relaxed-consensus, aa, liberal-aa, or 2set.")

let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of processes.")
let m_arg = Arg.(value & opt int 4 & info [ "m" ] ~doc:"Grid denominator for AA tasks.")

let eps_arg =
  Arg.(value & opt frac_conv (Frac.make 1 4)
       & info [ "eps" ] ~docv:"EPS" ~doc:"Precision for AA tasks, e.g. 1/4.")

(* Algebra terms arrive as strings and are parsed in the command body,
   so a malformed term exits 2 with the parser's message (matching the
   other usage errors) rather than cmdliner's generic CLI error. *)
let algebra_arg =
  Arg.(value & opt (some string) None
       & info [ "algebra" ] ~docv:"TERM"
           ~doc:"Model-algebra term (docs/MODELS.md), e.g. '(inter iis \
                 snapshot)'; overrides --model.")

let solve_cmd =
  let model =
    Arg.(value & opt model_conv Model.Immediate & info [ "model" ] ~doc:"Iterated model.")
  in
  let rounds = Arg.(value & opt int 1 & info [ "rounds"; "t" ] ~doc:"Rounds.") in
  let tas = Arg.(value & flag & info [ "tas" ] ~doc:"Augment IIS with test\\&set.") in
  let binary_inputs =
    Arg.(value & flag
         & info [ "binary-inputs" ] ~doc:"Restrict AA inputs to {0,1} (lower-bound family).")
  in
  let run task n m eps model algebra rounds tas binary_inputs =
    let task = task_of ~name:task ~n ~m ~eps in
    let inputs =
      if binary_inputs then
        Some (Complex.all_simplices (Approx_agreement.binary_input_complex ~n))
      else None
    in
    let verdict =
      match algebra with
      | Some term -> (
          match Algebra.parse term with
          | Error msg ->
              Printf.eprintf "speedup solve: %s\n" msg;
              exit 2
          | Ok t ->
              let inputs =
                match inputs with
                | Some i -> i
                | None -> Task.input_simplices task
              in
              Solvability.decide ~inputs
                ~protocol:(fun sigma -> Algebra.protocol_complex t sigma rounds)
                ~delta:(Task.delta task) ())
      | None ->
          if tas then
            Solvability.task_in_augmented ?inputs ~box:Black_box.test_and_set
              ~alpha:(Augmented.alpha_const Value.Unit) task ~rounds
          else Solvability.task_in_model ?inputs model task ~rounds
    in
    (match verdict with
    | Solvability.Solvable _ ->
        Printf.printf "%s: SOLVABLE in %d round(s)\n" task.Task.name rounds
    | Solvability.Unsolvable ->
        Printf.printf "%s: UNSOLVABLE in %d round(s)\n" task.Task.name rounds
    | Solvability.Undecided -> Printf.printf "%s: undecided (node limit)\n" task.Task.name);
    0
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Decide t-round solvability of a task.")
    Term.(const run $ task_arg $ n_arg $ m_arg $ eps_arg $ model $ algebra_arg
          $ rounds $ tas $ binary_inputs)

(* ---- closure ---- *)

let closure_cmd =
  let model =
    Arg.(value & opt model_conv Model.Immediate & info [ "model" ] ~doc:"Iterated model.")
  in
  let tas = Arg.(value & flag & info [ "tas" ] ~doc:"Augment IIS with test\\&set.") in
  let run task n m eps model algebra tas =
    let task = task_of ~name:task ~n ~m ~eps in
    let op =
      match algebra with
      | Some term -> (
          match Algebra.parse term with
          | Error msg ->
              Printf.eprintf "speedup closure: %s\n" msg;
              exit 2
          | Ok t -> Round_op.algebra t)
      | None -> if tas then Round_op.test_and_set else Round_op.plain model
    in
    let inputs = Task.input_simplices task in
    let fixed = ref true in
    List.iter
      (fun sigma ->
        let d' = Closure.delta ~op task sigma in
        let d = Task.delta task sigma in
        if not (Complex.equal d' d) then begin
          fixed := false;
          Format.printf "σ = %a: Δ has %d facets, Δ' has %d facets@." Simplex.pp
            sigma (Complex.facet_count d) (Complex.facet_count d')
        end)
      inputs;
    if !fixed then
      Printf.printf "%s is a fixed point of CL_[%s] (Δ' = Δ on all %d input simplices)\n"
        task.Task.name (Round_op.name op) (List.length inputs)
    else Printf.printf "%s is NOT a fixed point of CL_[%s]\n" task.Task.name (Round_op.name op);
    0
  in
  Cmd.v
    (Cmd.info "closure" ~doc:"Compute the closure of a task and test the fixed-point property.")
    Term.(const run $ task_arg $ n_arg $ m_arg $ eps_arg $ model $ algebra_arg
          $ tas)

(* ---- model (algebra) ---- *)

let model_eval_cmd =
  let term_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TERM"
             ~doc:"Model-algebra term, e.g. '(inter iis snapshot)'.")
  in
  let run term n =
    match Algebra.parse term with
    | Error msg ->
        Printf.eprintf "speedup model eval: %s\n" msg;
        2
    | Ok t ->
        let sigma =
          Simplex.of_list (List.init n (fun i -> (i + 1, Value.Int (i + 1))))
        in
        let facets = Algebra.facets t sigma in
        Format.printf "canonical: %s@." (Algebra.to_string t);
        Format.printf "one round on σ (n=%d): %d facet(s), %a@." n
          (List.length facets)
          Complex.pp_stats
          (Complex.of_facets facets);
        Format.printf "allows solo executions: %b@." (Algebra.allows_solo t sigma);
        0
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Parse a model-algebra term; print its canonical form, one-round \
             statistics, and the solo-execution hypothesis.  Exits 2 on a \
             malformed term.")
    Term.(const run $ term_arg $ n_arg)

let model_equiv_cmd =
  let lhs_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"LHS" ~doc:"Left model-algebra term.")
  in
  let rhs_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"RHS" ~doc:"Right model-algebra term.")
  in
  let n =
    Arg.(value & opt int 2
         & info [ "n" ] ~docv:"N"
             ~doc:"Probe the task battery at every instance size up to N.")
  in
  let run lhs rhs n =
    match (Algebra.parse lhs, Algebra.parse rhs) with
    | Error msg, _ | _, Error msg ->
        Printf.eprintf "speedup model equiv: %s\n" msg;
        2
    | Ok lhs, Ok rhs ->
        let outcome = Equiv.decide ~n lhs rhs in
        List.iter
          (fun (p : Equiv.probe) ->
            Printf.printf "%-44s %s\n" p.Equiv.label
              (if String.equal p.Equiv.lhs p.Equiv.rhs then "agree"
               else
                 Printf.sprintf "DIFFER (lhs %s, rhs %s)" p.Equiv.lhs
                   p.Equiv.rhs))
          outcome.Equiv.probes;
        if outcome.Equiv.equivalent then begin
          Printf.printf "%s == %s (task-solvability equivalent at bound n=%d)\n"
            (Algebra.to_string lhs) (Algebra.to_string rhs) n;
          0
        end
        else begin
          Printf.printf "%s =/= %s (distinguished at bound n=%d)\n"
            (Algebra.to_string lhs) (Algebra.to_string rhs) n;
          1
        end
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Decide task-solvability equivalence of two model-algebra terms \
             on small instances via the certified closure/solver pipeline.  \
             Exits 0 when equivalent, 1 when distinguished, 2 on a malformed \
             term.")
    Term.(const run $ lhs_arg $ rhs_arg $ n)

let model_cmd =
  Cmd.group
    (Cmd.info "model"
       ~doc:"Evaluate and compare model-algebra terms (see docs/MODELS.md).")
    [ model_eval_cmd; model_equiv_cmd ]

(* ---- run-algo ---- *)

let run_algo_cmd =
  let algo =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ALGO"
             ~doc:"halving, thirds, tas-consensus, bc-consensus, or bc-bitwise.")
  in
  let n = n_arg and m = m_arg and eps = eps_arg in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let count = Arg.(value & opt int 200 & info [ "count" ] ~doc:"Random schedules.") in
  let run algo n m eps seed count =
    let participants = List.init n (fun i -> i + 1) in
    let describe task protocol box rounds inputs =
      let schedules =
        Adversary.random_suite ~model:Model.Immediate ~boxed:(box <> None)
          ~participants ~rounds ~seed ~count
      in
      let failures = Adversary.check_task ?box protocol task ~inputs ~schedules in
      Printf.printf "%s: %d rounds, %d random schedules, %d violations\n"
        protocol.Protocol.name rounds (List.length schedules) (List.length failures);
      List.iteri
        (fun k f -> if k < 3 then Printf.printf "  %s\n" f.Adversary.reason)
        failures;
      if failures = [] then 0 else 1
    in
    let aa_inputs =
      List.mapi
        (fun idx i -> (i, Value.frac (if idx = n - 1 then m else idx * m / n) m))
        participants
    in
    match algo with
    | "halving" ->
        let rounds = Aa_halving.rounds_needed ~eps in
        describe (Approx_agreement.task ~n ~m ~eps) (Aa_halving.protocol ~m ~eps)
          None rounds aa_inputs
    | "thirds" ->
        let rounds = Aa_thirds.rounds_needed ~eps in
        describe (Approx_agreement.task ~n:2 ~m ~eps) (Aa_thirds.protocol ~m ~eps)
          None rounds
          [ (1, Value.frac 0 1); (2, Value.frac 1 1) ]
    | "tas-consensus" ->
        describe (Consensus.binary ~n:2) Tas_consensus2.protocol
          (Some Sim_object.test_and_set) 1
          [ (1, Value.Int 0); (2, Value.Int 1) ]
    | "bc-consensus" ->
        let rounds = Bc_consensus.rounds_needed ~n in
        describe
          (Consensus.multi ~n ~values:(List.map (fun i -> Value.Int i) participants))
          (Bc_consensus.protocol ~n)
          (Some Sim_object.consensus) rounds
          (List.map (fun i -> (i, Value.Int i)) participants)
    | "bc-bitwise" ->
        let k = Frac.ceil_log ~base:2 (Frac.of_int m) in
        let rounds = Bc_bitwise_aa.rounds_needed ~eps in
        describe (Approx_agreement.task ~n ~m ~eps)
          (Bc_bitwise_aa.protocol ~k ~eps)
          (Some Sim_object.consensus) rounds aa_inputs
    | other ->
        Printf.eprintf "unknown algorithm %S\n" other;
        2
  in
  Cmd.v
    (Cmd.info "run-algo" ~doc:"Run a paper algorithm in the simulator under random adversaries.")
    Term.(const run $ algo $ n $ m $ eps $ seed $ count)

(* ---- figure ---- *)

let figure_cmd =
  let which =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FIGURE"
             ~doc:"One of: 4 (2-proc consensus with test\\&set), 5 (3-proc IIS+test\\&set), 7 (IIS+binary consensus), 8a/8b/8c/8d (collect / snapshot / immediate complexes).")
  in
  let out =
    Arg.(value & opt string "figure.dot"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output DOT file.")
  in
  let run which out =
    let sigma3 =
      Simplex.of_list [ (1, Value.Int 1); (2, Value.Int 2); (3, Value.Int 3) ]
    in
    let sigma2 = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
    let unit_alpha = Augmented.alpha_const Value.Unit in
    let complex =
      match which with
      | "4" ->
          Some
            (Complex.of_facets
               (Augmented.one_round_facets ~box:Black_box.test_and_set
                  ~alpha:unit_alpha ~round:1 sigma2))
      | "5" ->
          Some
            (Complex.of_facets
               (Augmented.one_round_facets ~box:Black_box.test_and_set
                  ~alpha:unit_alpha ~round:1 sigma3))
      | "7" ->
          Some
            (Complex.of_facets
               (Augmented.one_round_facets ~box:Black_box.bin_consensus
                  ~alpha:(Augmented.alpha_of_beta (fun i -> i > 1))
                  ~round:1 sigma3))
      | "8a" | "8b" ->
          Some (Complex.of_facets (Model.one_round_facets Model.Immediate sigma3))
      | "8c" ->
          Some (Complex.of_facets (Model.one_round_facets Model.Snapshot sigma3))
      | "8d" ->
          Some (Complex.of_facets (Model.one_round_facets Model.Collect sigma3))
      | _ -> None
    in
    match complex with
    | None ->
        Printf.eprintf "unknown figure %S (try 4, 5, 7, 8a, 8b, 8c, 8d)\n" which;
        2
    | Some c ->
        Dot.write_file out c;
        Format.printf "figure %s -> %s (%a)@." which out Complex.pp_stats c;
        0
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Export a paper figure's complex as Graphviz DOT.")
    Term.(const run $ which $ out)

(* ---- svg ---- *)

let svg_cmd =
  let model =
    Arg.(value & opt model_conv Model.Immediate & info [ "model" ] ~doc:"Iterated model.")
  in
  let n = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of processes (2 or 3).") in
  let rounds = Arg.(value & opt int 1 & info [ "rounds"; "t" ] ~doc:"Rounds.") in
  let size = Arg.(value & opt int 640 & info [ "size" ] ~doc:"Image size in pixels.") in
  let out =
    Arg.(value & opt string "complex.svg"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output SVG file.")
  in
  let run model n rounds size out =
    if n < 2 || n > 3 then begin
      Printf.eprintf "svg rendering supports n = 2 or 3\n";
      2
    end
    else begin
      let sigma =
        Simplex.of_list (List.init n (fun i -> (i + 1, Value.Int (i + 1))))
      in
      let c = Model.protocol_complex model sigma rounds in
      Geometry.write_svg ~size out sigma c;
      Format.printf "P^(%d) in %s -> %s (%a)@." rounds (Model.name model) out
        Complex.pp_stats c;
      0
    end
  in
  Cmd.v
    (Cmd.info "svg" ~doc:"Render an iterated protocol complex as SVG (Figure 8 style).")
    Term.(const run $ model $ n $ rounds $ size $ out)

(* ---- cert ---- *)

let cert_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Certificate store root (default: \\$CERT_CACHE_DIR).")

let with_store dir k =
  (match dir with Some d -> Cert.Store.set_dir (Some d) | None -> ());
  match Cert.Store.dir () with
  | None ->
      Printf.eprintf "no certificate store: pass --dir or set CERT_CACHE_DIR\n";
      2
  | Some root -> k root

let verify_cert cert =
  match Cert.verify Cert_registry.env cert with
  | Ok () -> `Ok
  | Error (Cert.Unsupported msg) -> `Skip msg
  | Error (Cert.Invalid msg) -> `Fail msg

let cert_verify_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Certificate file (canonical S-expression).")
  in
  let run file =
    match
      try
        let ic = open_in_bin file in
        Ok
          (Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic)))
      with Sys_error msg -> Error msg
    with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        1
    | Ok contents -> (
    match Cert.Sexp.of_string (String.trim contents) with
    | Error msg ->
        Printf.eprintf "%s: unreadable: %s\n" file msg;
        1
    | Ok sexp -> (
        match Cert.decode sexp with
        | Error msg ->
            Printf.eprintf "%s: undecodable: %s\n" file msg;
            1
        | Ok cert -> (
            match verify_cert cert with
            | `Ok ->
                Printf.printf "%s: OK (%s: %s)\n" file (Cert.kind_name cert)
                  (Cert.subject cert);
                0
            | `Skip msg ->
                Printf.printf "%s: SKIP (%s)\n" file msg;
                0
            | `Fail msg ->
                Printf.eprintf "%s: INVALID: %s\n" file msg;
                1)))
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check one exported certificate file.")
    Term.(const run $ file)

let cert_ls_cmd =
  let run dir =
    with_store dir (fun _root ->
        List.iter
          (fun (key, path) ->
            match Cert.Store.load key with
            | None -> Printf.printf "%s  <unreadable>\n" key
            | Some sexp -> (
                match Cert.decode sexp with
                | Error msg -> Printf.printf "%s  <stale: %s>\n" key msg
                | Ok cert ->
                    ignore path;
                    Printf.printf "%s  %-11s %s\n" key (Cert.kind_name cert)
                      (Cert.subject cert)))
          (Cert.Store.entries ());
        0)
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"List the store's certificates with their subjects.")
    Term.(const run $ cert_dir_arg)

let cert_verify_store_cmd =
  let run dir =
    with_store dir (fun root ->
        let ok = ref 0 and skipped = ref 0 and failed = ref 0 in
        List.iter
          (fun (key, _path) ->
            match Cert.Store.load key with
            | None ->
                incr failed;
                Printf.printf "%s FAIL unreadable\n" key
            | Some sexp -> (
                match Cert.decode sexp with
                | Error msg ->
                    incr failed;
                    Printf.printf "%s FAIL %s\n" key msg
                | Ok cert -> (
                    match verify_cert cert with
                    | `Ok -> incr ok
                    | `Skip msg ->
                        incr skipped;
                        Printf.printf "%s SKIP %s\n" key msg
                    | `Fail msg ->
                        incr failed;
                        Printf.printf "%s FAIL %s: %s\n" key
                          (Cert.subject cert) msg)))
          (Cert.Store.entries ());
        Printf.printf "%s: %d verified, %d skipped (unresolvable names), %d failed\n"
          root !ok !skipped !failed;
        if !failed = 0 then 0 else 1)
  in
  Cmd.v
    (Cmd.info "verify-store"
       ~doc:"Re-validate every certificate in the store with the standard \
             task/operator registry.")
    Term.(const run $ cert_dir_arg)

let cert_gc_cmd =
  let run dir =
    with_store dir (fun root ->
        let removed =
          Cert.Store.gc ~keep:(fun ~key:_ sexp ->
              match Cert.decode sexp with
              | Error _ -> false
              | Ok cert -> (
                  match verify_cert cert with
                  | `Ok | `Skip _ -> true
                  | `Fail _ -> false))
        in
        Printf.printf "%s: removed %d file(s)\n" root removed;
        0)
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Drop quarantined, stale-version, undecodable, and invalid entries.")
    Term.(const run $ cert_dir_arg)

let cert_export_cmd =
  let key_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"KEY" ~doc:"Store key (as printed by 'cert ls').")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output file (default: stdout).")
  in
  let run dir key out =
    with_store dir (fun _root ->
        match Cert.Store.load key with
        | None ->
            Printf.eprintf "no entry for key %s\n" key;
            1
        | Some sexp -> (
            let text = Cert.Sexp.to_string sexp ^ "\n" in
            match out with
            | None ->
                print_string text;
                0
            | Some file ->
                let oc = open_out_bin file in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () -> output_string oc text);
                Printf.printf "wrote %s\n" file;
                0))
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Print or save one certificate by key.")
    Term.(const run $ cert_dir_arg $ key_arg $ out)

let cert_stats_cmd =
  let run dir =
    with_store dir (fun root ->
        let n = List.length (Cert.Store.entries ()) in
        Printf.printf "%s: %d certificate(s)\n" root n;
        0)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Entry count of the store.")
    Term.(const run $ cert_dir_arg)

let cert_cmd =
  Cmd.group
    (Cmd.info "cert"
       ~doc:"Inspect, verify, export, and garbage-collect proof certificates \
             (see docs/CERTIFICATES.md).")
    [ cert_verify_cmd; cert_ls_cmd; cert_verify_store_cmd; cert_gc_cmd;
      cert_export_cmd; cert_stats_cmd ]

(* ---- serve / query ---- *)

let addr_args =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --port).")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks a free one).")
  in
  let combine socket host port =
    match (socket, port) with
    | Some path, None -> Ok (Server.Unix_path path)
    | None, Some p -> Ok (Server.Tcp (host, p))
    | None, None -> Ok (Server.Unix_path "speedup.sock")
    | Some _, Some _ -> Error (`Msg "--socket and --port are exclusive")
  in
  Term.(term_result (const combine $ socket $ host $ port))

let serve_cmd =
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_limit =
    Arg.(value & opt int 64
         & info [ "queue-limit" ] ~docv:"N"
             ~doc:"Backpressure high-water mark: past this many queued \
                   requests, compute requests are rejected as overloaded.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline for requests without one.")
  in
  let access_log =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Append one JSON line per request ('-' for stderr).")
  in
  let peers =
    Arg.(value & opt (some string) None
         & info [ "peers" ] ~docv:"SPECS"
             ~doc:"Comma-separated fleet peers (unix:PATH or HOST:PORT) to \
                   replicate the certificate store with: push-on-write, \
                   pull-on-miss (docs/FLEET.md).")
  in
  let run addr workers queue_limit deadline_ms access_log peers =
    let peer_list =
      match peers with
      | None | Some "" -> Ok []
      | Some specs -> Peer.parse_list (String.split_on_char ',' specs)
    in
    match peer_list with
    | Error msg ->
        Printf.eprintf "speedup serve: %s\n" msg;
        2
    | Ok peer_list ->
        let log_oc =
          match access_log with
          | None -> None
          | Some "-" -> Some stderr
          | Some path ->
              Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
        in
        let config =
          {
            Server.addr;
            workers;
            queue_limit;
            default_deadline_ms = deadline_ms;
            access_log = log_oc;
            handler = None;
          }
        in
        let pp_addr = function
          | Server.Unix_path p -> Printf.sprintf "unix:%s" p
          | Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
        in
        let replica =
          match peer_list with [] -> None | ps -> Some (Replica.attach ps)
        in
        let summary =
          Fun.protect
            ~finally:(fun () -> Option.iter Replica.detach replica)
            (fun () ->
              Server.run
                ~on_ready:(fun addr ->
                  Printf.eprintf
                    "speedup serve: listening on %s (workers=%d peers=%d)\n%!"
                    (pp_addr addr) (max 1 workers) (List.length peer_list))
                config)
        in
        (match log_oc with
        | Some oc when oc != stderr -> close_out_noerr oc
        | _ -> ());
        Printf.eprintf
          "speedup serve: drained (requests=%d completed=%d rejected=%d)\n%!"
          summary.Server.requests summary.Server.completed
          summary.Server.rejected;
        if summary.Server.drained then 0 else 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the query daemon (line-delimited JSON; see docs/SERVER.md). \
             With --peers, replicates the certificate store across the fleet \
             (docs/FLEET.md).  Drains gracefully on SIGINT or a shutdown \
             request.")
    Term.(const run $ addr_args $ workers $ queue_limit $ deadline_ms
          $ access_log $ peers)

let query_cmd =
  let meth =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"METHOD"
             ~doc:"ping, stats, solvable, closure, equiv, experiment, \
                   complex-stats, or shutdown.")
  in
  let experiment_id =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"ARG" ~doc:"Experiment id (for 'experiment').")
  in
  let rounds =
    Arg.(value & opt int 1 & info [ "rounds"; "t" ] ~doc:"Rounds (solvable).")
  in
  let tas =
    Arg.(value & flag & info [ "tas" ] ~doc:"Augment IIS with test\\&set.")
  in
  let binary_inputs =
    Arg.(value & flag
         & info [ "binary-inputs" ]
             ~doc:"Restrict inputs to the binary input complex (solvable).")
  in
  let model =
    Arg.(value & opt string "immediate"
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"collect, snapshot, immediate, or a model-algebra term \
                   (docs/MODELS.md).")
  in
  let lhs =
    Arg.(value & opt (some string) None
         & info [ "lhs" ] ~docv:"TERM" ~doc:"Left algebra term (equiv).")
  in
  let rhs =
    Arg.(value & opt (some string) None
         & info [ "rhs" ] ~docv:"TERM" ~doc:"Right algebra term (equiv).")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let id_arg =
    Arg.(value & opt int 1 & info [ "id" ] ~docv:"N" ~doc:"Request id.")
  in
  let retries =
    Arg.(value & opt int 20
         & info [ "retries" ] ~docv:"N"
             ~doc:"Connection attempts (0.1s apart), for racing a server \
                   that is still starting.")
  in
  let run addr meth experiment_id task n m eps rounds tas binary_inputs model
      lhs rhs deadline_ms id retries =
    let params =
      match meth with
      | "ping" | "stats" | "shutdown" -> []
      | "experiment" -> (
          match experiment_id with
          | Some eid -> [ ("id", Jsonl.String eid) ]
          | None ->
              Printf.eprintf "query experiment needs an id argument\n";
              exit 2)
      | "equiv" -> (
          match (lhs, rhs) with
          | Some l, Some r ->
              [
                ("lhs", Jsonl.String l);
                ("rhs", Jsonl.String r);
                ("n", Jsonl.Int n);
              ]
          | _ ->
              Printf.eprintf "query equiv needs --lhs and --rhs terms\n";
              exit 2)
      | _ ->
          [
            ("task", Jsonl.String task);
            ("n", Jsonl.Int n);
            ("m", Jsonl.Int m);
            ("eps", Jsonl.String (Format.asprintf "%a" Frac.pp eps));
            ("rounds", Jsonl.Int rounds);
            ("tas", Jsonl.Bool tas);
            ("binary_inputs", Jsonl.Bool binary_inputs);
            ("model", Jsonl.String model);
          ]
    in
    match Client.connect_retry ~attempts:(max 1 retries) addr with
    | Error msg ->
        Printf.eprintf "cannot connect: %s\n" msg;
        2
    | Ok client ->
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            match
              Client.request ?deadline_ms client ~id:(Jsonl.Int id) ~meth
                ~params
            with
            | Error msg ->
                Printf.eprintf "transport error: %s\n" msg;
                2
            | Ok line ->
                print_endline line;
                let ok =
                  match Jsonl.of_string line with
                  | Ok reply -> Jsonl.member "ok" reply = Some (Jsonl.Bool true)
                  | Error _ -> false
                in
                if ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request to a running query daemon and print the raw \
             reply line.  Exits 0 on an ok reply, 1 on an error reply, 2 on \
             a transport failure.")
    Term.(const run $ addr_args $ meth $ experiment_id $ task_arg $ n_arg
          $ m_arg $ eps_arg $ rounds $ tas $ binary_inputs $ model $ lhs $ rhs
          $ deadline_ms $ id_arg $ retries)

(* ---- fleet ---- *)

let peers_arg =
  Arg.(required & opt (some string) None
       & info [ "peers" ] ~docv:"SPECS"
           ~doc:"Comma-separated backend daemons (unix:PATH or HOST:PORT).")

let fleet_route_cmd =
  let vnodes =
    Arg.(value & opt int 64
         & info [ "vnodes" ] ~docv:"N"
             ~doc:"Ring positions per peer (consistent hashing).")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Forwarding worker domains.")
  in
  let queue_limit =
    Arg.(value & opt int 64
         & info [ "queue-limit" ] ~docv:"N" ~doc:"Backpressure high-water mark.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline for requests without one.")
  in
  let run addr peers vnodes workers queue_limit deadline_ms =
    match Peer.parse_list (String.split_on_char ',' peers) with
    | Error msg ->
        Printf.eprintf "speedup fleet route: %s\n" msg;
        2
    | Ok [] ->
        Printf.eprintf "speedup fleet route: --peers is empty\n";
        2
    | Ok peer_list ->
        let proxy = Proxy.create ~vnodes peer_list in
        let config =
          {
            Server.addr;
            workers;
            queue_limit;
            default_deadline_ms = deadline_ms;
            access_log = None;
            handler = Some (Proxy.handler proxy);
          }
        in
        let pp_addr = function
          | Server.Unix_path p -> Printf.sprintf "unix:%s" p
          | Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
        in
        let summary =
          Server.run
            ~on_ready:(fun addr ->
              Printf.eprintf
                "speedup fleet route: listening on %s (peers=%d vnodes=%d)\n%!"
                (pp_addr addr) (List.length peer_list) vnodes)
            config
        in
        Printf.eprintf
          "speedup fleet route: drained (requests=%d completed=%d rejected=%d)\n%!"
          summary.Server.requests summary.Server.completed
          summary.Server.rejected;
        if summary.Server.drained then 0 else 1
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Run a consistent-hash routing front over a ring of daemons: \
             requests hash by canonical digest onto --peers, with rendezvous \
             failover when a peer is down (docs/FLEET.md).")
    Term.(const run $ addr_args $ peers_arg $ vnodes $ workers $ queue_limit
          $ deadline_ms)

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:"Multi-daemon serving: consistent-hash routing over replicated \
             certificate stores (docs/FLEET.md).")
    [ fleet_route_cmd ]

(* ---- atlas ---- *)

let atlas_name_arg =
  Arg.(value & opt string "default"
       & info [ "name" ] ~docv:"NAME" ~doc:"Atlas (manifest) name.")

let atlas_build_cmd =
  let max_n =
    Arg.(value & opt int 3
         & info [ "max-n" ] ~docv:"N"
             ~doc:"Largest process count in the cell grid (2..4).")
  in
  let run dir name max_n =
    if max_n < 2 || max_n > 4 then begin
      Printf.eprintf "speedup atlas build: --max-n must be in 2..4\n";
      2
    end
    else
      with_store dir @@ fun _root ->
      let spec = Atlas.default_spec ~max_n ~name () in
      match Atlas.build spec with
      | Error msg ->
          Printf.eprintf "speedup atlas build: %s\n" msg;
          1
      | Ok r ->
          Printf.printf
            "atlas %s: %d cell(s) (%d built, %d already present), manifest %s\n"
            name r.Atlas.cells r.Atlas.built r.Atlas.skipped r.Atlas.manifest_key;
          0
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Batch-enumerate and certify every (model, task) cell of the \
             atlas grid into the certificate store, in parallel over the \
             domain pool; resumable, and finished by a coverage manifest \
             certificate (docs/FLEET.md).")
    Term.(const run $ cert_dir_arg $ atlas_name_arg $ max_n)

let atlas_verify_cmd =
  let run dir name =
    with_store dir @@ fun _root ->
    match Atlas.verify name with
    | Error msg ->
        Printf.eprintf "speedup atlas verify: %s\n" msg;
        1
    | Ok a ->
        Printf.printf "atlas %s: %d cell(s) verified, %d entr%s audited\n" name
          a.Atlas.audited_cells a.Atlas.audited_keys
          (if a.Atlas.audited_keys = 1 then "y" else "ies");
        0
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Audit an atlas: re-verify the coverage manifest and every store \
             entry it lists, without enumerating anything.")
    Term.(const run $ cert_dir_arg $ atlas_name_arg)

let atlas_cmd =
  Cmd.group
    (Cmd.info "atlas"
       ~doc:"Precomputed closure atlases: offline batch certification with \
             auditable coverage (docs/FLEET.md).")
    [ atlas_build_cmd; atlas_verify_cmd ]

let main_cmd =
  let doc = "Reproduction of the PODC'22 asynchronous speedup theorem paper." in
  Cmd.group
    (Cmd.info "speedup" ~version:"1.0.0" ~doc)
    [ experiment_cmd; list_cmd; complex_cmd; solve_cmd; closure_cmd; model_cmd;
      run_algo_cmd; figure_cmd; svg_cmd; cert_cmd; serve_cmd; query_cmd;
      fleet_cmd; atlas_cmd ]

let () =
  (* Debug logging is opt-in via the environment so that every
     subcommand honors it without threading a flag. *)
  (match Sys.getenv_opt "SPEEDUP_DEBUG" with
  | Some ("1" | "true" | "yes") ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
  | Some _ | None -> Logs.set_level (Some Logs.Warning));
  (* Validate SPEEDUP_JOBS up front so a bad value fails the command
     before any work starts, not mid-computation. *)
  (match Pool.jobs () with
  | _ -> ()
  | exception Invalid_argument msg ->
      Printf.eprintf "speedup: %s\n" msg;
      exit 2);
  let code = Cmd.eval' main_cmd in
  (* One greppable line for CI: a warm certificate store must show
     enumerations=0 and store_hits>0. *)
  (match Sys.getenv_opt "SPEEDUP_STATS" with
  | Some ("1" | "true" | "yes") ->
      let m = Closure.memo_stats () in
      let s = Cert.Store.stats () in
      let l = Solvability.stats () in
      let c = Csp.totals () in
      Printf.eprintf
        "closure-stats: memo_hits=%d memo_misses=%d enumerations=%d \
         entries=%d store_hits=%d store_misses=%d store_writes=%d \
         store_corrupt=%d layouts=%d layout_hits=%d csp_solves=%d \
         csp_nodes=%d index_tables=%d\n"
        m.Closure.hits m.Closure.misses m.Closure.enumerations m.Closure.entries
        s.Cert_store.hits s.Cert_store.misses s.Cert_store.writes
        s.Cert_store.corrupt l.Solvability.layouts l.Solvability.layout_hits
        c.Csp.solves c.Csp.nodes_searched l.Solvability.index_tables;
      (* Scheduler counters on their own greppable line: contention
         regressions (no steals, lopsided domains)
         should be observable, not inferred from wall clocks. *)
      let p = Pool.stats () in
      Printf.eprintf
        "pool-stats: batches=%d chunks=%d items=%d steals=%d \
         stolen_chunks=%d domain_chunks=%s\n"
        p.Pool.batches p.Pool.chunks p.Pool.items p.Pool.steals
        p.Pool.stolen_chunks
        (match p.Pool.domain_chunks with
        | [] -> "-"
        | dc ->
            String.concat ","
              (List.map (fun (slot, n) -> Printf.sprintf "%d:%d" slot n) dc));
      (* Replication counters (docs/FLEET.md), printed only when there
         was replication traffic: the fleet-smoke CI job greps pulls>0
         to pin pull-on-miss. *)
      let r = Cert_store.repl_stats () in
      if
        r.Cert_store.pushes + r.Cert_store.push_failures + r.Cert_store.pulls
        + r.Cert_store.pull_misses + r.Cert_store.installs
        + r.Cert_store.rejects
        > 0
      then
        Printf.eprintf
          "repl-stats: pushes=%d push_failures=%d pulls=%d pull_misses=%d \
           installs=%d rejects=%d\n"
          r.Cert_store.pushes r.Cert_store.push_failures r.Cert_store.pulls
          r.Cert_store.pull_misses r.Cert_store.installs r.Cert_store.rejects
  | Some _ | None -> ());
  exit code

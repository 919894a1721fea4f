(* Tests for the proof-certificate subsystem: canonical S-expressions,
   codec round-trips, independent verification (including rejection of
   tampered witnesses), and the persistent store. *)

module G = QCheck2.Gen

(* ---- canonical S-expressions ---- *)

let sexp_gen : Cert_sexp.t G.t =
  let atom =
    G.oneof
      [
        G.string_size ~gen:G.printable (G.int_range 0 8);
        G.oneofl
          [ ""; "plain"; "has space"; "(paren)"; "quo\"te"; "back\\slash";
            "new\nline"; "tab\there"; ";comment" ];
      ]
  in
  G.sized_size (G.int_range 0 3) (fun n ->
      G.fix
        (fun self n ->
          if n = 0 then G.map (fun a -> Cert_sexp.Atom a) atom
          else
            G.oneof
              [
                G.map (fun a -> Cert_sexp.Atom a) atom;
                G.map
                  (fun l -> Cert_sexp.List l)
                  (G.list_size (G.int_range 0 4) (self (n - 1)));
              ])
        n)

let prop_sexp_roundtrip =
  QCheck2.Test.make ~name:"sexp: of_string (to_string s) = s" ~count:500
    sexp_gen (fun s ->
      match Cert_sexp.of_string (Cert_sexp.to_string s) with
      | Ok s' -> Cert_sexp.equal s s'
      | Error _ -> false)

let test_sexp_rejects_garbage () =
  List.iter
    (fun text ->
      match Cert_sexp.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed %S" text)
    [ ""; "("; ")"; "(a b"; "a)"; "a b"; "(a) b"; "\"unterminated" ]

(* ---- codec round-trips ---- *)

let prop_value_roundtrip =
  QCheck2.Test.make ~name:"codec: value round-trip" ~count:500 Gen.value
    (fun v -> Value.equal v (Cert_codec.value_of (Cert_codec.value v)))

let prop_vertex_roundtrip =
  QCheck2.Test.make ~name:"codec: vertex round-trip" ~count:500
    (Gen.vertex ()) (fun v ->
      Vertex.equal v (Cert_codec.vertex_of (Cert_codec.vertex v)))

let prop_simplex_roundtrip =
  QCheck2.Test.make ~name:"codec: simplex round-trip" ~count:300
    (Gen.simplex ()) (fun s ->
      Simplex.equal s (Cert_codec.simplex_of (Cert_codec.simplex s)))

let prop_complex_roundtrip =
  QCheck2.Test.make ~name:"codec: complex round-trip" ~count:200
    (Gen.complex ()) (fun c ->
      Complex.equal c (Cert_codec.complex_of (Cert_codec.complex c)))

let prop_map_roundtrip =
  QCheck2.Test.make ~name:"codec: simplicial map round-trip" ~count:200
    (Gen.simplicial_map ()) (fun f ->
      Simplicial_map.equal f
        (Cert_codec.simplicial_map_of (Cert_codec.simplicial_map f)))

let prop_simplex_digest_stable =
  QCheck2.Test.make ~name:"codec: equal simplices share a digest" ~count:200
    (Gen.simplex ()) (fun s ->
      let s' = Simplex.of_vertices (List.rev (Simplex.vertices s)) in
      Cert_codec.digest (Cert_codec.simplex s)
      = Cert_codec.digest (Cert_codec.simplex s'))

(* ---- certificate round-trips, one per kind ---- *)

let aa = Approx_agreement.task ~n:2 ~m:3 ~eps:(Frac.make 1 3)
let op = Round_op.plain Model.Immediate
let aa_sigma = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ]

(* A genuine one-round membership: a facet of Δ'(σ) \ Δ(σ) together
   with the decision map found by the solver. *)
let genuine_membership =
  lazy
    (let d' = Closure.delta ~op aa aa_sigma in
     let d = Task.delta aa aa_sigma in
     let tau =
       List.find
         (fun t -> Simplex.card t = 2 && not (Complex.mem t d))
         (Complex.facets d')
     in
     let witness = Closure.witness ~op aa ~sigma:aa_sigma ~tau in
     Alcotest.(check bool) "witness exists" true (witness <> None);
     Cert.
       {
         op_name = Round_op.name op;
         task_name = aa.Task.name;
         sigma = aa_sigma;
         tau;
         member = true;
         witness;
       })

(* The full Δ'(σ) with every member's witness — verifiable, unlike a
   partial list (the checker requires Δ(σ) ⊆ members). *)
let genuine_enumeration =
  lazy
    (let d' = Closure.delta ~op aa aa_sigma in
     Cert.Enumeration
       {
         op_name = Round_op.name op;
         task_name = aa.Task.name;
         sigma = aa_sigma;
         members =
           List.map
             (fun tau -> (tau, Closure.witness ~op aa ~sigma:aa_sigma ~tau))
             (Complex.facets d');
       })

let sample_certs () =
  let m = Lazy.force genuine_membership in
  let cons = Consensus.binary ~n:2 in
  let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
  let square =
    Complex.of_facets
      [
        Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 0) ];
        Simplex.of_list [ (1, Value.Int 1); (2, Value.Int 1) ];
      ]
  in
  [
    Cert.Membership m;
    Cert.Membership { m with member = false; witness = None };
    Lazy.force genuine_enumeration;
    Cert.Solution
      {
        model_name = "immediate";
        task_name = cons.Task.name;
        rounds = 1;
        inputs = [ sigma ];
        verdict = false;
        map = None;
      };
    Cert.Fixed_point
      {
        op_name = m.Cert.op_name;
        task_name = cons.Task.name;
        per_sigma = [ (sigma, Complex.facets (Task.delta cons sigma)) ];
      };
    Cert.Unsolvable
      {
        task_name = cons.Task.name;
        rounds = 0;
        reason =
          Cert.Disconnected
            {
              complex = square;
              u = Vertex.make 1 (Value.Int 0);
              v = Vertex.make 1 (Value.Int 1);
            };
      };
  ]

let test_cert_roundtrip () =
  List.iter
    (fun cert ->
      match Cert.decode (Cert.encode cert) with
      | Ok cert' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %s" (Cert.kind_name cert))
            true (Cert.equal cert cert')
      | Error msg ->
          Alcotest.failf "decode (%s): %s" (Cert.kind_name cert) msg)
    (sample_certs ())

let test_key_is_query_addressed () =
  (* Same question, different answers: one key. *)
  let m = Lazy.force genuine_membership in
  let yes = Cert.Membership m in
  let no = Cert.Membership { m with member = false; witness = None } in
  Alcotest.(check string) "key ignores the answer" (Cert.key yes) (Cert.key no);
  Alcotest.(check bool)
    "distinct τ, distinct key" true
    (Cert.key yes
    <> Cert.key (Cert.Membership { m with tau = m.Cert.sigma }))

(* ---- verification ---- *)

let env = Cert_registry.env

let check_verify name expected cert =
  let got =
    match Cert.verify env cert with
    | Ok () -> `Ok
    | Error (Cert.Unsupported _) -> `Unsupported
    | Error (Cert.Invalid _) -> `Invalid
  in
  Alcotest.(check bool) name true (got = expected)

let test_verify_genuine () =
  let m = Lazy.force genuine_membership in
  check_verify "genuine membership verifies" `Ok (Cert.Membership m);
  check_verify "genuine enumeration verifies" `Ok
    (Lazy.force genuine_enumeration)

let test_verify_rejects_tampered_witness () =
  let m = Lazy.force genuine_membership in
  let f = Option.get m.Cert.witness in
  (* Redirect every image to an off-grid value: the map is still
     well-formed, but its facet images leave Δ of the local task. *)
  let tampered =
    Simplicial_map.of_assoc
      (List.map
         (fun (v, w) -> (v, Vertex.make (Vertex.color w) (Value.Int 999)))
         (Simplicial_map.graph f))
  in
  check_verify "tampered witness rejected" `Invalid
    (Cert.Membership { m with witness = Some tampered })

let test_verify_rejects_wrong_carrier () =
  let m = Lazy.force genuine_membership in
  (* σ shrunk to one vertex: τ is no longer a chromatic set over it. *)
  let small_sigma =
    Simplex.of_list [ (1, Value.frac 0 1) ]
  in
  check_verify "wrong carrier rejected" `Invalid
    (Cert.Membership { m with sigma = small_sigma })

let test_verify_rejects_forged_enumeration () =
  let m = Lazy.force genuine_membership in
  (* An enumeration claiming a τ without any grounds: the solver's map
     is missing and τ is not in Δ(σ). *)
  check_verify "forged enumeration member rejected" `Invalid
    (Cert.Enumeration
       {
         op_name = m.Cert.op_name;
         task_name = m.Cert.task_name;
         sigma = aa_sigma;
         members = [ (m.Cert.tau, None) ];
       })

let test_decode_rejects_stale_version () =
  let m = Lazy.force genuine_membership in
  let stale =
    match Cert.encode (Cert.Membership m) with
    | Cert_sexp.List (tag :: Cert_sexp.List [ v; Cert_sexp.Atom _ ] :: rest) ->
        Cert_sexp.List
          (tag :: Cert_sexp.List [ v; Cert_sexp.Atom "speedup-cert/0" ] :: rest)
    | _ -> Alcotest.fail "unexpected certificate layout"
  in
  match Cert.decode stale with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale engine version accepted"

let test_verify_disconnection () =
  let square =
    Complex.of_facets
      [
        Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 0) ];
        Simplex.of_list [ (1, Value.Int 1); (2, Value.Int 1) ];
      ]
  in
  let cert u v =
    Cert.Unsolvable
      {
        task_name = "binary-consensus(n=2)";
        rounds = 0;
        reason = Cert.Disconnected { complex = square; u; v };
      }
  in
  check_verify "true disconnection verifies" `Ok
    (cert (Vertex.make 1 (Value.Int 0)) (Vertex.make 1 (Value.Int 1)));
  check_verify "connected pair rejected" `Invalid
    (cert (Vertex.make 1 (Value.Int 0)) (Vertex.make 2 (Value.Int 0)))

(* ---- persistent store ---- *)

let mk_temp_dir () =
  let path = Filename.temp_file "speedup-cert-test" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_store f =
  let dir = mk_temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      (* Back to CERT_CACHE_DIR (if any), not force-disabled: later
         suites should see the ambient store configuration. *)
      Cert_store.unset_dir ();
      rm_rf dir)
    (fun () ->
      Cert_store.set_dir (Some dir);
      Cert_store.reset_stats ();
      f dir)

let test_store_save_load () =
  with_store (fun _dir ->
      let cert = Cert.Membership (Lazy.force genuine_membership) in
      let key = Cert.key cert in
      Alcotest.(check bool) "miss before save" true (Cert_store.load key = None);
      Cert_store.save ~key (Cert.encode cert);
      (match Cert_store.load key with
      | None -> Alcotest.fail "entry missing after save"
      | Some sexp ->
          Alcotest.(check bool)
            "loaded = saved" true
            (Cert_sexp.equal sexp (Cert.encode cert)));
      Alcotest.(check (list string))
        "entries" [ key ]
        (List.map fst (Cert_store.entries ())))

let test_store_quarantines_corrupt () =
  with_store (fun _dir ->
      let cert = Cert.Membership (Lazy.force genuine_membership) in
      let key = Cert.key cert in
      Cert_store.save ~key (Cert.encode cert);
      let path = List.assoc key (Cert_store.entries ()) in
      let oc = open_out path in
      output_string oc "(cert torn";
      close_out oc;
      Alcotest.(check bool) "corrupt load misses" true (Cert_store.load key = None);
      Alcotest.(check bool)
        "corrupt counted" true
        ((Cert_store.stats ()).Cert_store.corrupt > 0);
      Alcotest.(check (list string)) "quarantined out of the index" []
        (List.map fst (Cert_store.entries ()));
      Alcotest.(check bool) "gc sweeps the quarantine" true
        (Cert_store.gc ~keep:(fun ~key:_ _ -> true) >= 1))

let test_store_gc_keep_predicate () =
  with_store (fun _dir ->
      List.iter
        (fun cert -> Cert_store.save ~key:(Cert.key cert) (Cert.encode cert))
        (sample_certs ());
      (* Note the two Membership samples answer the same query, hence
         share a key: the store holds one entry for them. *)
      let is_membership (key, _path) =
        match Option.map Cert.decode (Cert_store.load key) with
        | Some (Ok (Cert.Membership _)) -> true
        | _ -> false
      in
      let before = Cert_store.entries () in
      let memberships = List.length (List.filter is_membership before) in
      Alcotest.(check bool) "some membership entries" true (memberships > 0);
      let removed =
        Cert_store.gc ~keep:(fun ~key:_ sexp ->
            match Cert.decode sexp with
            | Ok (Cert.Membership _) -> true
            | Ok _ | Error _ -> false)
      in
      Alcotest.(check int) "non-membership entries removed"
        (List.length before - memberships)
        removed;
      Alcotest.(check int) "membership entries survive" memberships
        (List.length (Cert_store.entries ())))

let test_warm_store_skips_enumeration () =
  with_store (fun _dir ->
      let t = Consensus.binary ~n:2 in
      let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
      Closure.reset_memo ();
      let cold = Closure.delta ~memo:false ~op t sigma in
      let st = Closure.memo_stats () in
      Alcotest.(check bool) "cold run enumerates" true (st.Closure.enumerations > 0);
      Closure.reset_memo ();
      let warm = Closure.delta ~memo:false ~op t sigma in
      let st = Closure.memo_stats () in
      Alcotest.(check int) "warm run: zero enumerations" 0 st.Closure.enumerations;
      Alcotest.(check bool) "warm = cold" true (Complex.equal cold warm);
      Alcotest.(check bool)
        "served by the store" true
        ((Cert_store.stats ()).Cert_store.hits > 0))

let test_tampered_store_entry_recovers () =
  with_store (fun _dir ->
      let t = Consensus.binary ~n:2 in
      let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
      Closure.reset_memo ();
      let honest = Closure.delta ~memo:false ~op t sigma in
      (* Swap the entry for a verifiable-looking forgery claiming an
         extra member without a witness: verification must reject it
         and the computation must recompute the honest answer. *)
      let key =
        Cert.query_key
          (Cert.Q_delta
             { op_name = Round_op.name op; task_name = t.Task.name; sigma })
      in
      let forged =
        Cert.Enumeration
          {
            op_name = Round_op.name op;
            task_name = t.Task.name;
            sigma;
            members =
              [ (Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 0) ], None) ];
          }
      in
      Cert_store.save ~key (Cert.encode forged);
      Closure.reset_memo ();
      let recovered = Closure.delta ~memo:false ~op t sigma in
      Alcotest.(check bool) "forgery rejected, honest answer recomputed" true
        (Complex.equal honest recovered);
      Alcotest.(check bool) "recomputation enumerated" true
        ((Closure.memo_stats ()).Closure.enumerations > 0))

let test_unpersistent_ops_stay_out () =
  with_store (fun _dir ->
      let t = Approx_agreement.liberal ~n:2 ~m:2 ~eps:Frac.half in
      let sigma = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
      let beta_op = Round_op.bin_consensus_beta (fun _ -> true) in
      Alcotest.(check bool) "β op is not persistent" false
        (Round_op.persistent beta_op);
      ignore (Closure.delta ~memo:false ~op:beta_op t sigma);
      Alcotest.(check (list string))
        "no certificates for session-local operators" []
        (List.map fst (Cert_store.entries ())))

(* ---- the read-through ([Cert.cached]) at every site ---- *)

let without_store f =
  Cert_store.set_dir None;
  Fun.protect ~finally:Cert_store.unset_dir f

(* Plant [bad] under [query]'s key and run [site]: the entry must be
   quarantined (out of the index, counted as corrupt) and the answer
   must be the honest one, computed with the store off. *)
let check_rejected ~name ~equal ~query ~bad site =
  let honest =
    without_store (fun () ->
        Closure.reset_memo ();
        site ())
  in
  with_store (fun _dir ->
      Closure.reset_memo ();
      let key = Cert.query_key query in
      let planted = Cert.encode bad in
      Cert_store.save ~key planted;
      Cert_store.reset_stats ();
      let got = site () in
      Alcotest.(check bool) (name ^ ": honest answer") true (equal honest got);
      Alcotest.(check int) (name ^ ": counted corrupt") 1
        (Cert_store.stats ()).Cert_store.corrupt;
      Alcotest.(check bool) (name ^ ": planted entry left the index") false
        (List.exists
           (fun (k, _) ->
             match Cert_store.load_local k with
             | Some sexp -> Cert_sexp.equal sexp planted
             | None -> false)
           (Cert_store.entries ())))

(* One forged entry (fails [Cert.verify]) and one misfiled entry (a
   valid certificate of another query) per site. *)
let check_site ~name ~equal ~query ~forged ~misfiled site =
  check_verify (name ^ ": misfiled entry is itself valid") `Ok misfiled;
  check_verify (name ^ ": forged entry is invalid") `Invalid forged;
  check_rejected ~name:(name ^ " (forged)") ~equal ~query ~bad:forged site;
  check_rejected ~name:(name ^ " (misfiled)") ~equal ~query ~bad:misfiled site

let test_read_through_membership () =
  let m = Lazy.force genuine_membership in
  (* tau_member: τ at spread 9ε is no member; the forgery claims a
     zero-round membership for it. *)
  let t9 = Approx_agreement.task ~n:2 ~m:9 ~eps:(Frac.make 1 9) in
  let far = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 1) ] in
  let near = Simplex.of_list [ (1, Value.frac 0 1); (2, Value.frac 1 9) ] in
  check_site ~name:"tau_member" ~equal:Bool.equal
    ~query:
      (Cert.Q_member
         {
           op_name = Round_op.name op;
           task_name = t9.Task.name;
           sigma = aa_sigma;
           tau = far;
         })
    ~forged:
      (Cert.Membership
         {
           op_name = Round_op.name op;
           task_name = t9.Task.name;
           sigma = aa_sigma;
           tau = far;
           member = true;
           witness = None;
         })
    ~misfiled:
      (Cert.Membership
         {
           op_name = Round_op.name op;
           task_name = t9.Task.name;
           sigma = aa_sigma;
           tau = near;
           member = true;
           witness = None;
         })
    (fun () -> Closure.tau_member ~op t9 ~sigma:aa_sigma ~tau:far);
  (* witness: the forgery redirects every image off the grid; the
     misfiled entry is a valid zero-round membership of another τ,
     which would otherwise be recomputed without a quarantine. *)
  let zero_round =
    List.find
      (fun t -> not (Simplex.equal t m.Cert.tau))
      (Complex.facets (Task.delta aa aa_sigma))
  in
  let tampered =
    Simplicial_map.of_assoc
      (List.map
         (fun (v, w) -> (v, Vertex.make (Vertex.color w) (Value.Int 999)))
         (Simplicial_map.graph (Option.get m.Cert.witness)))
  in
  check_site ~name:"witness" ~equal:(Option.equal Simplicial_map.equal)
    ~query:(Cert.query_of (Cert.Membership m))
    ~forged:(Cert.Membership { m with witness = Some tampered })
    ~misfiled:
      (Cert.Membership { m with tau = zero_round; member = true; witness = None })
    (fun () -> Closure.witness ~op aa ~sigma:aa_sigma ~tau:m.Cert.tau)

(* The input simplices of one process, where Δ' = Δ. *)
let solo_sigmas task =
  List.filter (fun s -> Simplex.card s = 1) (Task.input_simplices task)

let test_read_through_enumeration () =
  let m = Lazy.force genuine_membership in
  let solo = List.hd (solo_sigmas aa) in
  check_site ~name:"delta" ~equal:Complex.equal
    ~query:(Cert.query_of (Lazy.force genuine_enumeration))
    ~forged:
      (Cert.Enumeration
         {
           op_name = m.Cert.op_name;
           task_name = m.Cert.task_name;
           sigma = aa_sigma;
           members = [ (m.Cert.tau, None) ];
         })
    ~misfiled:
      (Cert.Enumeration
         {
           op_name = m.Cert.op_name;
           task_name = m.Cert.task_name;
           sigma = solo;
           members =
             List.map
               (fun tau -> (tau, Closure.witness ~op aa ~sigma:solo ~tau))
               (Complex.facets (Closure.delta ~op aa solo));
         })
    (fun () -> Closure.delta ~op aa aa_sigma)

let test_read_through_fixed_point () =
  (* ε-AA is no fixed point: an accepted entry would flip the answer.
     The misfiled entry is the (valid) fixed point on its solo inputs
     alone. *)
  let sigmas = Task.input_simplices aa in
  let fixed_point task per_sigma =
    Cert.Fixed_point
      { op_name = Round_op.name op; task_name = task.Task.name; per_sigma }
  in
  check_site ~name:"fixed_point_on" ~equal:Bool.equal
    ~query:
      (Cert.Q_fixed_point
         { op_name = Round_op.name op; task_name = aa.Task.name; sigmas })
    ~forged:(fixed_point aa (List.map (fun sigma -> (sigma, [])) sigmas))
    ~misfiled:
      (fixed_point aa
         (List.map
            (fun sigma -> (sigma, Complex.facets (Task.delta aa sigma)))
            (solo_sigmas aa)))
    (fun () -> Closure.fixed_point_on ~op aa sigmas)

let test_read_through_equivalence () =
  let a, b =
    if Algebra.compare Algebra.iis Algebra.snapshot < 0 then
      (Algebra.iis, Algebra.snapshot)
    else (Algebra.snapshot, Algebra.iis)
  in
  let an = Algebra.to_string a and bn = Algebra.to_string b in
  let equivalence ~n ~equivalent probes =
    Cert.Equivalence { lhs = an; rhs = bn; n; equivalent; probes }
  in
  check_site ~name:"Equiv.decide"
    ~equal:(fun (x : Equiv.outcome) (y : Equiv.outcome) ->
      x.equivalent = y.equivalent && x.probes = y.probes)
    ~query:(Cert.Q_equiv { lhs = an; rhs = bn; n = 1 })
    ~forged:(equivalence ~n:1 ~equivalent:true [ ("probe", "x", "y") ])
    ~misfiled:(equivalence ~n:2 ~equivalent:true [ ("probe", "x", "x") ])
    (fun () -> Equiv.decide ~memo:false ~n:1 a b)

let test_read_through_solution () =
  let cons = Consensus.binary ~n:2 in
  let inputs = Task.input_simplices cons in
  let solution ~rounds ~verdict =
    Cert.Solution
      {
        model_name = Model.name Model.Immediate;
        task_name = cons.Task.name;
        rounds;
        inputs;
        verdict;
        map = None;
      }
  in
  let tag = function
    | Solvability.Solvable _ -> `Solvable
    | Solvability.Unsolvable -> `Unsolvable
    | Solvability.Undecided -> `Undecided
  in
  check_site ~name:"task_in_model"
    ~equal:(fun x y -> tag x = tag y)
    ~query:
      (Cert.Q_solve
         {
           model_name = Model.name Model.Immediate;
           task_name = cons.Task.name;
           rounds = 1;
           inputs;
         })
    (* Solvable without a decision map. *)
    ~forged:(solution ~rounds:1 ~verdict:true)
    ~misfiled:(solution ~rounds:2 ~verdict:false)
    (fun () -> Solvability.task_in_model Model.Immediate cons ~rounds:1)

let test_undecided_solve_not_stored () =
  with_store (fun _dir ->
      let verdict =
        Solvability.task_in_model ~node_limit:1 Model.Immediate aa ~rounds:1
      in
      Alcotest.(check bool) "node limit 1 leaves the solve undecided" true
        (verdict = Solvability.Undecided);
      Alcotest.(check (list string)) "no entry written" []
        (List.map fst (Cert_store.entries ())))

(* Concurrent writers from separate *processes* (store_writer.exe):
   both drive the production path against the same root, then hammer
   re-saves of the same keys, so the tmp-file + atomic-rename sequence
   races cross-process.  Last rename wins; every surviving entry must
   be valid, re-verifiable, and serve a warm read-through — and the
   CLI [cert verify-store] must stay clean. *)

let run_process cmd =
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with Unix.WEXITED n -> n | _ -> -1
  in
  (code, List.rev !lines)

let contains_substring needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_concurrent_process_writers () =
  with_store (fun dir ->
      let here = Filename.dirname Sys.executable_name in
      let writer = Filename.concat here "store_writer.exe" in
      let spawn () =
        Unix.create_process writer [| writer; dir; "40" |] Unix.stdin
          Unix.stdout Unix.stderr
      in
      let p1 = spawn () in
      let p2 = spawn () in
      List.iter
        (fun p ->
          match Unix.waitpid [] p with
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "store writer process failed")
        [ p1; p2 ];
      (* Every surviving entry parses and decodes; nothing was torn or
         quarantined by the racing renames. *)
      let entries = Cert_store.entries () in
      Alcotest.(check bool) "entries were written" true (entries <> []);
      List.iter
        (fun (key, path) ->
          Alcotest.(check bool) "no quarantined sibling" false
            (Sys.file_exists (path ^ ".quarantined"));
          match Option.map Cert.decode (Cert_store.load key) with
          | Some (Ok _) -> ()
          | Some (Error msg) ->
              Alcotest.fail (Printf.sprintf "stale entry %s: %s" key msg)
          | None -> Alcotest.fail (Printf.sprintf "unreadable entry %s" key))
        entries;
      Alcotest.(check int) "no corrupt loads" 0
        (Cert_store.stats ()).Cert_store.corrupt;
      (* Re-verifiable on the production path: a warm read-through run
         reproduces the storeless answer with zero enumerations. *)
      let t = Consensus.binary ~n:2 in
      let sigma = Simplex.of_list [ (1, Value.Int 0); (2, Value.Int 1) ] in
      Closure.reset_memo ();
      let warm = Closure.delta ~memo:false ~op t sigma in
      Alcotest.(check int) "warm read-through: zero enumerations" 0
        (Closure.memo_stats ()).Closure.enumerations;
      Cert_store.unset_dir ();
      Closure.reset_memo ();
      let honest = Closure.delta ~memo:false ~op t sigma in
      Cert_store.set_dir (Some dir);
      Alcotest.(check bool) "warm answer matches storeless recompute" true
        (Complex.equal honest warm);
      (* And the whole store re-validates through the CLI. *)
      let bin = Filename.concat here "../bin/main.exe" in
      let code, lines =
        run_process
          (String.concat " "
             [
               Filename.quote bin; "cert"; "verify-store"; "--dir";
               Filename.quote dir;
             ])
      in
      Alcotest.(check int) "verify-store exits 0" 0 code;
      Alcotest.(check bool) "verify-store reports 0 failed" true
        (List.exists (contains_substring "0 failed") lines))

(* GC racing live writers and a replication puller: two writer
   processes hammer re-saves of one task's keys, a puller re-installs
   a second task's entries through [Cert_sync.install] (the fleet
   trust boundary), and the parent runs [cert gc] passes in the
   middle.  Atomic renames mean gc only ever sees complete entries
   (it may zap an in-flight [.tmp], which the writer's save path
   absorbs), so the store must come out clean and fully verifiable. *)
let test_gc_races_writers_and_puller () =
  with_store (fun dir ->
      (* Seed a source store with a different task's entries so the
         pull adds keys the writers never produce. *)
      let src = mk_temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf src) @@ fun () ->
      Cert_store.set_dir (Some src);
      let aa = Approx_agreement.task ~n:2 ~m:2 ~eps:Frac.half in
      let op = Round_op.plain Model.Immediate in
      List.iter
        (fun sigma -> ignore (Closure.delta ~memo:false ~op aa sigma))
        (Task.input_simplices aa);
      let src_keys = List.map fst (Cert_store.entries ()) in
      Alcotest.(check bool) "source store seeded" true (src_keys <> []);
      Cert_store.set_dir (Some dir);
      let here = Filename.dirname Sys.executable_name in
      let writer = Filename.concat here "store_writer.exe" in
      let bin = Filename.concat here "../bin/main.exe" in
      let spawn args =
        Unix.create_process writer (Array.append [| writer |] args) Unix.stdin
          Unix.stdout Unix.stderr
      in
      let pids =
        [
          spawn [| dir; "120" |];
          spawn [| dir; "120" |];
          spawn [| "--pull"; dir; src; "120" |];
        ]
      in
      (* Concurrent gc passes: each re-verifies every complete entry
         while saves and installs are still landing. *)
      for _ = 1 to 3 do
        let code, _ =
          run_process
            (String.concat " "
               [ Filename.quote bin; "cert"; "gc"; "--dir"; Filename.quote dir ])
        in
        Alcotest.(check int) "concurrent gc exits 0" 0 code
      done;
      List.iter
        (fun p ->
          match Unix.waitpid [] p with
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "store writer/puller process failed")
        pids;
      (* Replicated keys survived gc (valid entries are kept) ... *)
      Alcotest.(check bool) "pulled keys present after gc" true
        (List.for_all Cert_store.mem src_keys);
      (* ... and the whole store re-validates through the CLI. *)
      let code, lines =
        run_process
          (String.concat " "
             [
               Filename.quote bin; "cert"; "verify-store"; "--dir";
               Filename.quote dir;
             ])
      in
      Alcotest.(check int) "verify-store exits 0" 0 code;
      Alcotest.(check bool) "verify-store reports 0 failed" true
        (List.exists (contains_substring "0 failed") lines))

let suite =
  ( "cert",
    [
      QCheck_alcotest.to_alcotest prop_sexp_roundtrip;
      Alcotest.test_case "sexp parser rejects garbage" `Quick
        test_sexp_rejects_garbage;
      QCheck_alcotest.to_alcotest prop_value_roundtrip;
      QCheck_alcotest.to_alcotest prop_vertex_roundtrip;
      QCheck_alcotest.to_alcotest prop_simplex_roundtrip;
      QCheck_alcotest.to_alcotest prop_complex_roundtrip;
      QCheck_alcotest.to_alcotest prop_map_roundtrip;
      QCheck_alcotest.to_alcotest prop_simplex_digest_stable;
      Alcotest.test_case "certificate round-trip (all kinds)" `Quick
        test_cert_roundtrip;
      Alcotest.test_case "keys address the query" `Quick
        test_key_is_query_addressed;
      Alcotest.test_case "verify: genuine certificates" `Quick
        test_verify_genuine;
      Alcotest.test_case "verify: tampered witness" `Quick
        test_verify_rejects_tampered_witness;
      Alcotest.test_case "verify: wrong carrier" `Quick
        test_verify_rejects_wrong_carrier;
      Alcotest.test_case "verify: forged enumeration" `Quick
        test_verify_rejects_forged_enumeration;
      Alcotest.test_case "decode: stale version" `Quick
        test_decode_rejects_stale_version;
      Alcotest.test_case "verify: disconnection obstruction" `Quick
        test_verify_disconnection;
      Alcotest.test_case "store: save/load" `Quick test_store_save_load;
      Alcotest.test_case "store: corrupt entry quarantined" `Quick
        test_store_quarantines_corrupt;
      Alcotest.test_case "store: gc keep predicate" `Quick
        test_store_gc_keep_predicate;
      Alcotest.test_case "store: warm run skips enumeration" `Quick
        test_warm_store_skips_enumeration;
      Alcotest.test_case "store: tampered entry recovers" `Quick
        test_tampered_store_entry_recovers;
      Alcotest.test_case "store: session-local ops not persisted" `Quick
        test_unpersistent_ops_stay_out;
      Alcotest.test_case "read-through: membership sites" `Quick
        test_read_through_membership;
      Alcotest.test_case "read-through: enumeration" `Quick
        test_read_through_enumeration;
      Alcotest.test_case "read-through: fixed point" `Quick
        test_read_through_fixed_point;
      Alcotest.test_case "read-through: equivalence" `Quick
        test_read_through_equivalence;
      Alcotest.test_case "read-through: solution" `Quick
        test_read_through_solution;
      Alcotest.test_case "read-through: undecided solve not stored" `Quick
        test_undecided_solve_not_stored;
      Alcotest.test_case "store: concurrent process writers" `Quick
        test_concurrent_process_writers;
      Alcotest.test_case "store: gc races writers and replication pull" `Quick
        test_gc_races_writers_and_puller;
    ] )

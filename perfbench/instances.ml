type group = {
  label : string;
  op : Round_op.t;
  task : Task.t;
  sigmas : Simplex.t list;
}

let group label op task sigmas =
  { label; op; task; sigmas = List.sort_uniq Simplex.compare sigmas }

let full n m =
  Complex.all_simplices (Combinatorics.full_input_complex n (Approx_agreement.grid m))

(* e6: Claim 2, CL_IIS(eps-AA, n=2) = (3eps)-AA. *)
let e6 () =
  let op = Round_op.plain Model.Immediate in
  let edge a b = Simplex.of_list [ (1, a); (2, b) ] in
  let sampled m =
    let g k = Value.frac k m in
    List.concat_map Simplex.faces
      [
        edge (g 0) (g m);
        edge (g 0) (g (m / 2));
        edge (g (m / 3)) (g (2 * m / 3));
        edge (g 1) (g (m - 1));
        edge (g (m / 2)) (g (m / 2));
      ]
  in
  List.map
    (fun (m, k, all) ->
      let eps = Frac.make k m in
      group
        (Printf.sprintf "e6 m=%d eps=%s" m (Frac.to_string eps))
        op
        (Approx_agreement.task ~n:2 ~m ~eps)
        (if all then full 2 m else sampled m))
    [ (3, 1, true); (6, 1, true); (6, 2, true); (9, 1, true); (9, 2, false); (27, 1, false) ]

let facet3 m (a, b, c) =
  Simplex.of_list [ (1, Value.frac a m); (2, Value.frac b m); (3, Value.frac c m) ]

let extreme_facet = facet3 2 (0, 1, 2)

(* e7: Claim 3, CL_IIS(liberal eps-AA, n>=3) = liberal (2eps)-AA, with
   the n = 4 spot check and the snapshot/collect robustness rows. *)
let e7 () =
  let op = Round_op.plain Model.Immediate in
  let sampled m =
    List.concat_map Simplex.faces
      [
        facet3 m (0, m / 2, m);
        facet3 m (0, 0, m);
        facet3 m (1, m / 2, m - 1);
        facet3 m (0, m, m);
        facet3 m (m / 2, m / 2, m / 2);
      ]
  in
  let main =
    List.map
      (fun (m, k, all) ->
        let eps = Frac.make k m in
        group
          (Printf.sprintf "e7 m=%d eps=%s" m (Frac.to_string eps))
          op
          (Approx_agreement.liberal ~n:3 ~m ~eps)
          (if all then full 3 m else sampled m))
      [ (2, 1, true); (4, 1, true); (4, 2, true); (6, 1, false); (8, 1, false); (8, 2, false) ]
  in
  let n4 =
    let sigma =
      Simplex.of_list
        [ (1, Value.frac 0 1); (2, Value.frac 1 4); (3, Value.frac 3 4); (4, Value.frac 1 1) ]
    in
    group "e7 n=4" op
      (Approx_agreement.liberal ~n:4 ~m:4 ~eps:(Frac.make 1 4))
      (Simplex.faces sigma)
  in
  let models =
    List.map
      (fun model ->
        group
          ("e7 " ^ Model.name model)
          (Round_op.plain model)
          (Approx_agreement.liberal ~n:3 ~m:4 ~eps:(Frac.make 1 4))
          (Simplex.faces extreme_facet))
      [ Model.Immediate; Model.Snapshot; Model.Collect ]
  in
  main @ [ n4 ] @ models

(* e10: Claim 4, the same closure under IIS + test&set. *)
let e10 () =
  List.map
    (fun (m, k, all) ->
      let eps = Frac.make k m in
      group
        (Printf.sprintf "e10 m=%d eps=%s" m (Frac.to_string eps))
        Round_op.test_and_set
        (Approx_agreement.liberal ~n:3 ~m ~eps)
        (if all then full 3 m else Simplex.faces extreme_facet))
    [ (2, 1, true); (4, 1, true); (4, 2, true); (8, 1, false) ]

(* e11: Claim 6, IIS + binary consensus with constant proposals beta,
   one group per beta : {1..5} -> bool. *)
let e11 () =
  let ids = [ 1; 2; 3; 4; 5 ] and m = 4 in
  let task = Approx_agreement.liberal ~n:5 ~m ~eps:(Frac.make 1 m) in
  let rec betas = function
    | [] -> [ [] ]
    | i :: rest ->
        List.concat_map
          (fun b -> List.map (fun tl -> (i, b) :: tl) (betas rest))
          [ false; true ]
  in
  List.map
    (fun beta ->
      let zeros = List.filter (fun i -> not (List.assoc i beta)) ids in
      let ones = List.filter (fun i -> List.assoc i beta) ids in
      let side = if List.length zeros >= List.length ones then zeros else ones in
      let chosen = match side with a :: b :: c :: _ -> [ a; b; c ] | s -> s in
      let sigma =
        Simplex.of_list
          (List.mapi
             (fun idx i -> (i, Value.frac (if idx = 0 then 0 else if idx = 1 then m / 2 else m) m))
             chosen)
      in
      let name = String.concat "" (List.map (fun (_, b) -> if b then "1" else "0") beta) in
      group ("e11 beta=" ^ name)
        (Round_op.bin_consensus_beta (fun i -> List.assoc i beta))
        task (Simplex.faces sigma))
    (betas ids)

let tables () = e6 () @ e7 () @ e10 () @ e11 ()

(* A traced tables run enumerates this list four times (the reference,
   the replay untraced and traced, the certificate build), so it keeps
   one eps per full-input (experiment, m) shape and leaves out
   e7's sampled m = 8 and n = 4 groups: about 8 of the 30 s the whole
   list takes at jobs=1 on a 2-core host. *)
let costliest =
  [ "e7 m=8 eps=1/8"; "e7 m=8 eps=1/4"; "e7 n=4"; "e7 m=4 eps=1/2"; "e10 m=4 eps=1/2" ]

let tables_replay () = List.filter (fun g -> not (List.mem g.label costliest)) (tables ())

(* The daemon's task vocabulary (Wire's task_of_params). *)
let task_of_params params =
  let str k d = match List.assoc_opt k params with Some (Jsonl.String s) -> s | _ -> d in
  let int k d = match List.assoc_opt k params with Some (Jsonl.Int i) -> i | _ -> d in
  let n = int "n" 3 and m = int "m" 4 in
  let eps =
    match String.split_on_char '/' (str "eps" "1/4") with
    | [ p; q ] -> Frac.make (int_of_string p) (int_of_string q)
    | _ -> invalid_arg "Instances: eps"
  in
  match str "task" "consensus" with
  | "consensus" -> Consensus.binary ~n
  | "relaxed-consensus" -> Consensus.relaxed ~n ~values:[ Value.Int 0; Value.Int 1 ]
  | "aa" -> Approx_agreement.task ~n ~m ~eps
  | "liberal-aa" -> Approx_agreement.liberal ~n ~m ~eps
  | "2set" -> Set_agreement.task ~n ~k:2 ~values:[ Value.Int 0; Value.Int 1; Value.Int 2 ]
  | t -> invalid_arg ("Instances: task " ^ t)

let of_requests reqs =
  List.filter_map
    (fun (r : Draw.request) ->
      if r.meth <> "closure" then None
      else
        let params = r.params in
        let op =
          match List.assoc_opt "tas" params with
          | Some (Jsonl.Bool true) -> Round_op.test_and_set
          | _ -> (
              match List.assoc_opt "model" params with
              | Some (Jsonl.String s) -> (
                  match Model.of_string s with
                  | Some m -> Round_op.plain m
                  | None -> invalid_arg ("Instances: model " ^ s))
              | _ -> Round_op.plain Model.Immediate)
        in
        let task = task_of_params params in
        Some (group r.key op task (Task.input_simplices task)))
    reqs

type outcome = {
  latency_ms : float array;
  done_s : float array;
  wall_s : float;
  failed : int;
  first_body : (string, string) Hashtbl.t;
}

let body_of_reply ~id line =
  let prefix = Printf.sprintf "{\"id\": %d, " id in
  let p = String.length prefix in
  if String.length line > p && String.sub line 0 p = prefix then
    Some (String.sub line p (String.length line - p))
  else None

let is_ok_body b =
  let ok = "\"ok\": true" in
  String.length b >= String.length ok && String.sub b 0 (String.length ok) = ok

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable cur : int;  (** request in flight, -1 when idle *)
  mutable sent_ns : int;
}

let rec write_all fd s off =
  if off < String.length s then
    let k = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + k)

let run ~sock ~clients reqs =
  let n = Array.length reqs in
  let lines = Array.mapi (fun i r -> Draw.line ~id:i r ^ "\n") reqs in
  let conns =
    Array.init (max 1 (min clients n)) (fun _ ->
        { fd = Daemon.connect sock; buf = Buffer.create 4096; cur = -1; sent_ns = 0 })
  in
  let latency_ms = Array.make n Float.nan in
  let done_ns = Array.make n 0 in
  let first_body = Hashtbl.create 64 in
  let failed = ref 0 and next = ref 0 and completed = ref 0 in
  let send c =
    if !next < n then begin
      let i = !next in
      incr next;
      c.cur <- i;
      c.sent_ns <- Clock.now_ns ();
      write_all c.fd lines.(i) 0
    end
    else c.cur <- -1
  in
  let handle c line t_ns =
    let i = c.cur in
    latency_ms.(i) <- float_of_int (t_ns - c.sent_ns) *. 1e-6;
    done_ns.(i) <- t_ns;
    incr completed;
    (match body_of_reply ~id:i line with
    | Some body when is_ok_body body -> (
        let key = reqs.(i).Draw.key in
        match Hashtbl.find_opt first_body key with
        | None -> Hashtbl.replace first_body key body
        | Some b -> if not (String.equal b body) then incr failed)
    | _ -> incr failed);
    send c
  in
  let chunk = Bytes.create 65536 in
  let t0 = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns)
    (fun () ->
      Array.iter send conns;
      while !completed < n do
        let busy =
          List.filter_map
            (fun c -> if c.cur >= 0 then Some c.fd else None)
            (Array.to_list conns)
        in
        match Unix.select busy [] [] 60. with
        | [], _, _ -> failwith "no reply within 60 s"
        | ready, _, _ ->
            List.iter
              (fun fd ->
                let c = List.find (fun c -> c.fd = fd) (Array.to_list conns) in
                let k = Unix.read fd chunk 0 (Bytes.length chunk) in
                let t = Clock.now_ns () in
                if k = 0 then failwith "daemon closed a connection";
                match Bytes.index_from_opt chunk 0 '\n' with
                | Some j when j < k ->
                    if j + 1 <> k then failwith "reply for a request not yet sent";
                    Buffer.add_subbytes c.buf chunk 0 j;
                    let line = Buffer.contents c.buf in
                    Buffer.clear c.buf;
                    handle c line t
                | _ -> Buffer.add_subbytes c.buf chunk 0 k)
              ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done);
  let wall_s = Clock.seconds_between t0 (Clock.now_ns ()) in
  let done_s = Array.map (fun t -> Clock.seconds_between t0 t) done_ns in
  { latency_ms; done_s; wall_s; failed = !failed; first_body }

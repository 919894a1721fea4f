type t = {
  pid : int;
  sock : string;
  err : Unix.file_descr;  (** read end of the daemon's stderr *)
}

let pid t = t.pid

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

(* Reads the daemon's stderr until its "listening on" banner. *)
let await_banner fd ~deadline =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  let rec go () =
    if contains (Buffer.contents buf) "listening on" then ()
    else
      let left = deadline -. Clock.now_s () in
      if left <= 0. then failwith "daemon did not start listening";
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ ->
          let k = Unix.read fd chunk 0 (Bytes.length chunk) in
          if k = 0 then
            failwith ("daemon exited before listening: " ^ Buffer.contents buf);
          Buffer.add_subbytes buf chunk 0 k;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let start ~speedup ~sock ~store ~workers ~jobs ?access_log () =
  (try Sys.remove sock with Sys_error _ -> ());
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let args =
    [ "serve"; "--socket"; sock; "--workers"; string_of_int workers ]
    @ match access_log with Some f -> [ "--access-log"; f ] | None -> []
  in
  let pid =
    Proc.spawn
      ~env:[ ("CERT_CACHE_DIR", store); ("SPEEDUP_JOBS", string_of_int jobs) ]
      ~stderr:err_w speedup args
  in
  Unix.close err_w;
  await_banner err_r ~deadline:(Clock.now_s () +. 60.);
  { pid; sock; err = err_r }

let rpc t line =
  let fd = connect t.sock in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      output_string oc line;
      output_char oc '\n';
      flush oc;
      try input_line ic with End_of_file -> failwith "daemon closed the connection")

let stats t =
  let reply = rpc t "{\"id\": 0, \"method\": \"stats\"}" in
  match Jsonl.of_string reply with
  | Ok v -> (
      match Jsonl.member "result" v with
      | Some r -> r
      | None -> failwith ("stats: no result in " ^ reply))
  | Error e -> failwith ("stats: " ^ e)

let stop t =
  ignore (rpc t "{\"id\": 0, \"method\": \"shutdown\"}");
  let status = Proc.wait ~timeout_s:60. t.pid in
  Unix.close t.err;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon did not drain cleanly"

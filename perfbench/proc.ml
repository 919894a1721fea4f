let live : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let environment ~env ~unset =
  let drop =
    unset @ List.map fst env
  in
  let keep =
    List.filter
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i -> not (List.mem (String.sub kv 0 i) drop)
        | None -> true)
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (keep @ List.map (fun (k, v) -> k ^ "=" ^ v) env)

let spawn ?(env = []) ?(unset = []) ?(stdout = Unix.stderr) ?(stderr = Unix.stderr)
    prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (environment ~env ~unset) devnull stdout stderr)
  in
  live := pid :: !live;
  pid

let forget pid = live := List.filter (fun p -> p <> pid) !live

let wait ?(timeout_s = 170.) pid =
  let deadline = Clock.now_s () +. timeout_s in
  let rec poll pause =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Clock.now_s () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          forget pid;
          failwith (Printf.sprintf "child %d killed after %.0fs" pid timeout_s)
        end
        else begin
          Unix.sleepf pause;
          poll (Float.min 0.05 (pause *. 2.))
        end
    | _, status ->
        forget pid;
        status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll pause
  in
  poll 0.0005

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let run ?env ?unset ?stdout ?timeout_s prog args =
  match wait ?timeout_s (spawn ?env ?unset ?stdout prog args) with
  | Unix.WEXITED 0 -> ()
  | st ->
      failwith
        (Printf.sprintf "%s %s: %s" prog (String.concat " " args) (describe st))

let hwm_of_status path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                  (fun kb -> Some (float_of_int kb /. 1024.))
            | _ -> scan ()
          in
          scan ())

let peak_rss_mb pid = hwm_of_status (Printf.sprintf "/proc/%d/status" pid)
let self_peak_rss_mb () = hwm_of_status "/proc/self/status"

let nproc () =
  match Unix.open_process_in "nproc" with
  | exception Unix.Unix_error _ -> 1
  | ic ->
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 1 in
      ignore (Unix.close_process_in ic);
      max 1 n

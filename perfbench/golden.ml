type t = (string, string) Hashtbl.t

let load path =
  let t = Hashtbl.create 64 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
      (try
         while true do
           let l = input_line ic in
           match String.index_opt l ' ' with
           | Some i ->
               Hashtbl.replace t
                 (String.sub l (i + 1) (String.length l - i - 1))
                 (String.sub l 0 i)
           | None -> ()
         done
       with End_of_file -> ());
      close_in ic);
  t

let md5 s = Digest.to_hex (Digest.string s)

let dir_digest root =
  let rec files rel =
    let dir = if rel = "" then root else Filename.concat root rel in
    List.concat_map
      (fun name ->
        let r = if rel = "" then name else Filename.concat rel name in
        match (Unix.lstat (Filename.concat root r)).Unix.st_kind with
        | Unix.S_DIR -> files r
        | Unix.S_REG -> [ r ]
        | _ -> [])
      (List.sort String.compare (Array.to_list (Sys.readdir dir)))
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b r;
      Buffer.add_char b ' ';
      Buffer.add_string b (Digest.to_hex (Digest.file (Filename.concat root r)));
      Buffer.add_char b '\n')
    (files "");
  md5 (Buffer.contents b)

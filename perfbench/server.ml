(* The [probdb serve] child process: spawn it on an ephemeral port, learn
   the port from its startup line, read its peak RSS, stop it and reap it. *)

type t = { pid : int; port : int }

(* Read to EOF: /proc files report no length up front. *)
let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
          let rec go () =
            let n = input ic chunk 0 4096 in
            if n > 0 then (Buffer.add_subbytes buf chunk 0 n; go ())
          in
          go ();
          Buffer.contents buf)
  | exception Sys_error _ -> ""

(* "probdb serve: listening on 127.0.0.1:PORT (...)" *)
let port_of_banner text =
  let key = "listening on " in
  let klen = String.length key in
  let rec find i =
    if i + klen > String.length text then None
    else if String.sub text i klen = key then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
      match String.index_from_opt text start ' ' with
      | None -> None
      | Some stop -> (
          let addr = String.sub text start (stop - start) in
          match String.rindex_opt addr ':' with
          | Some i -> int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1))
          | None -> None))

let reap pid ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then false
        else (Unix.sleepf 0.002; loop ())
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  loop ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid ~timeout_s:10.0)

(* Start [exe serve --db db --port 0 args...]; stdout and stderr go to
   files under [dir] (a pipe left unread could block or kill the child). *)
let spawn ~exe ~dir ~tag ~db args =
  let out_path = Filename.concat dir (tag ^ ".out") in
  let err_path = Filename.concat dir (tag ^ ".err") in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = fd out_path and err = fd err_path in
  let argv =
    Array.of_list
      ([ exe; "serve"; "--db"; db; "--port"; "0" ]
      @ List.concat_map (fun (k, v) -> if v = "" then [ k ] else [ k; v ]) args)
  in
  let pid = Unix.create_process exe argv Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait_port () =
    match port_of_banner (read_file out_path) with
    | Some port -> { pid; port }
    | None ->
        let exited =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> false
          | _ -> true
          | exception Unix.Unix_error _ -> true
        in
        if exited || Unix.gettimeofday () > deadline then begin
          if not exited then kill_and_reap pid;
          failwith
            (Printf.sprintf "probdb serve did not start: %s" (String.trim (read_file err_path)))
        end;
        Unix.sleepf 0.0005;
        wait_port ()
  in
  wait_port ()

(* Peak resident set (VmHWM) in MiB, 0 when /proc is unavailable. *)
let peak_rss_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
              match float_of_string_opt kb with Some kb -> kb /. 1024.0 | None -> acc)
          | [] -> acc)
      | _ -> acc)
    0.0
    (String.split_on_char '\n' status)

(* SIGTERM drains the server; a server that has not exited after 10 s is
   killed. Either way the child is reaped before this returns. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (reap t.pid ~timeout_s:10.0) then kill_and_reap t.pid

(* The benchmark's side of a real `flexcl serve --socket` process: spawn
   it, connect, send one request at a time, and shut it down, checking
   how it exited. A server that dies or stops answering costs lost
   requests, never the benchmark run. *)

exception Lost of string

type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

(* a reply slower than this is a hang: the request counts as lost *)
let reply_timeout_s = 60.0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
      Some { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  try go 0 with Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))

let recv c =
  let rec newline i =
    if i >= c.hi then None
    else if Bytes.unsafe_get c.buf i = '\n' then Some i
    else newline (i + 1)
  in
  let rec go scan =
    match newline scan with
    | Some i ->
        let line = Bytes.sub_string c.buf c.lo (i - c.lo) in
        c.lo <- i + 1;
        if c.lo = c.hi then begin
          c.lo <- 0;
          c.hi <- 0
        end;
        line
    | None ->
        if c.lo > 0 then begin
          Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
          c.hi <- c.hi - c.lo;
          c.lo <- 0
        end;
        if c.hi = Bytes.length c.buf then begin
          let bigger = Bytes.create (2 * c.hi) in
          Bytes.blit c.buf 0 bigger 0 c.hi;
          c.buf <- bigger
        end;
        let scanned = c.hi in
        let n =
          try Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
          | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              raise (Lost "no reply in time")
          | Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))
        in
        if n = 0 then raise (Lost "connection closed");
        c.hi <- c.hi + n;
        go scanned
  in
  go c.lo

(* (reply, round trip in ns) *)
let round_trip c line =
  let t0 = Spans.now_ns () in
  send c line;
  let r = recv c in
  (r, Spans.since_ns t0)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + m <= n && (matches i 0 || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Server processes *)

type server = { pid : int; socket : string; mutable status : Unix.process_status option }

let live : server list ref = ref []

let running s =
  (if s.status = None then
     match Unix.waitpid [ Unix.WNOHANG ] s.pid with
     | 0, _ -> ()
     | _, st -> s.status <- Some st
     | exception Unix.Unix_error _ -> ());
  s.status = None

let kill s =
  if running s then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    match Unix.waitpid [] s.pid with
    | _, st -> s.status <- Some st
    | exception Unix.Unix_error _ -> ()
  end

(* a probe that fails part-way must not leave a server behind *)
let () = at_exit (fun () -> List.iter kill !live)

let spawn ~cli ~socket ~log ~model =
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ cli; "serve"; "--socket"; socket; "--jobs"; "0" ]
    @ if model then [ "--model"; Plan.model_path ] else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process cli (Array.of_list args) null null err in
  Unix.close null;
  Unix.close err;
  let s = { pid; socket; status = None } in
  live := s :: !live;
  s

(* the first connection the server accepts; None if it exits or never
   binds its socket *)
let connect_when_ready s =
  let t0 = Spans.now_ns () in
  let rec go () =
    match connect s.socket with
    | Some c -> Some c
    | None ->
        if (not (running s)) || Spans.since_ns t0 > 30e9 then None
        else begin
          Unix.sleepf 0.0002;
          go ()
        end
  in
  go ()

(* VmHWM of a live process, in MB *)
let peak_rss_mb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  with
  | exception Sys_error _ -> 0.0
  | s ->
      List.fold_left
        (fun acc l ->
          match Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0) with
          | mb -> mb
          | exception _ -> acc)
        0.0 (String.split_on_char '\n' s)

type exit_report = { acked : bool; clean : bool; socket_removed : bool }

(* a shutdown request, then wait for the process to exit; one that hangs
   is killed and reported unclean *)
let stop s conn =
  let acked =
    match conn with
    | None -> false
    | Some c -> (
        match
          send c {|{"kind":"shutdown"}|};
          recv c
        with
        | r -> contains r {|"ok":true|}
        | exception Lost _ -> false)
  in
  Option.iter close conn;
  let t0 = Spans.now_ns () in
  while running s && Spans.since_ns t0 < 20e9 do
    Unix.sleepf 0.002
  done;
  kill s;
  live := List.filter (fun x -> x != s) !live;
  let socket_removed = not (Sys.file_exists s.socket) in
  (try Sys.remove s.socket with Sys_error _ -> ());
  { acked; clean = s.status = Some (Unix.WEXITED 0); socket_removed }

(* The program under test as child processes: spawn [prefserve] /
   [prefroute] on ephemeral ports, wait until each answers PING, read
   their peak RSS from /proc, and stop them with SIGTERM, checking the
   drain banner each prints on the way out. *)

type child = {
  pid : int;
  log : string;  (** the child's stdout and stderr *)
  mutable port : int;
  mutable exited : bool;
}

let fail fmt = Printf.ksprintf failwith fmt

(* Read to EOF (files under /proc report no length). *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close devnull)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) devnull out out)
  in
  { pid; log; port = 0; exited = false }

let exited c =
  c.exited
  || (match Unix.waitpid [ Unix.WNOHANG ] c.pid with
     | 0, _ -> false
     | _ -> c.exited <- true; true
     | exception Unix.Unix_error (Unix.ECHILD, _, _) -> c.exited <- true; true)

(* "<prog>: listening on 127.0.0.1:PORT ..." is the first line both
   binaries print once the socket is bound. *)
let listening_port text =
  match Str.search_forward (Str.regexp "listening on [0-9.]+:\\([0-9]+\\)") text 0 with
  | _ -> Some (int_of_string (Str.matched_group 1 text))
  | exception Not_found -> None

let await_port ?(timeout_s = 120.) c =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    match listening_port (read_file c.log) with
    | Some p -> c.port <- p
    | None ->
      if exited c then fail "%s exited before listening:\n%s" c.log (read_file c.log);
      if Unix.gettimeofday () -. t0 > timeout_s then fail "%s: no listening line" c.log;
      Unix.sleepf 0.002;
      loop ()
  in
  loop ()

(* Peak resident set size (VmHWM) in MiB. *)
let peak_rss_mb c =
  let status = read_file (Printf.sprintf "/proc/%d/status" c.pid) in
  match Str.search_forward (Str.regexp "VmHWM:[ \t]*\\([0-9]+\\) kB") status 0 with
  | _ -> float_of_string (Str.matched_group 1 status) /. 1024.
  | exception Not_found -> fail "no VmHWM for pid %d" c.pid

external process_cpu_ns : int -> int = "perfbench_process_cpu_ns" [@@noalloc]

(* CPU time the process has used, in nanoseconds, from its POSIX CPU
   clock (see cpuclock.c): every thread's, exited ones included, and
   without the time the hypervisor stole from the virtual CPU. *)
let cpu_ns c =
  let ns = process_cpu_ns c.pid in
  if ns < 0 then fail "no CPU clock for pid %d" c.pid;
  ns

(* Steal time of the whole host so far, in seconds (/proc/stat). *)
let host_steal () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: "" :: f -> float_of_string (List.nth f 7) /. 100.
  | _ -> 0.

(* SIGTERM, wait for the exit (SIGKILL after 60 s), and return N from the
   "drained, N queries ..." banner. *)
let stop c =
  if not (exited c) then begin
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let t0 = Unix.gettimeofday () in
    while not (exited c) do
      if Unix.gettimeofday () -. t0 > 60. then (
        try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      Unix.sleepf 0.005
    done
  end;
  let text = read_file c.log in
  match Str.search_forward (Str.regexp "drained, \\([0-9]+\\) queries") text 0 with
  | _ -> Some (int_of_string (Str.matched_group 1 text))
  | exception Not_found -> None

(* Every child still running, so a failed run leaves no process behind. *)
let live : child list ref = ref []

let track c = live := c :: !live; c

let stop_all () =
  List.iter (fun c -> ignore (stop c)) !live;
  live := []

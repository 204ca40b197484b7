(* The load generator and the answer oracle.

   Each connection is one generator thread that keeps [in_flight] requests
   outstanding: at 1 it is a closed loop (the next request leaves when the
   previous answer arrives), above 1 a pipelined connection. All threads
   draw request positions from one shared counter, so the requests sent
   are a prefix of the seeded stream whatever the interleaving. Every
   reply is checked as it arrives. *)

open Util
module Client = Probdb_serve.Client

type outcome =
  | Exact_ok
  | Degraded_ok of { miss : bool }
      (** a well-formed (ε,δ) answer; [miss]: its interval excludes the
          reference value *)
  | Wrong of string
  | Error_reply of string  (** typed error class *)
  | Shed

(* Exact replies must equal the reference bit for bit; degraded ones must
   carry a well-formed interval around their estimate at the configured δ.
   The sampled estimate itself may leave [0, 1] (the interval is clamped,
   the mean is not), so it is compared clamped. *)
let check ~expected reply =
  let bool path = match member path reply with Some (Json.Bool b) -> b | _ -> false in
  if not (bool [ "ok" ]) then
    match member [ "error"; "class" ] reply with
    | Some (Json.Str "overloaded") -> Shed
    | Some (Json.Str cls) -> Error_reply cls
    | _ -> Wrong "reply without ok or error class"
  else
    let value = num [ "result"; "value" ] reply in
    if bool [ "result"; "degraded" ] then begin
      let lo = num [ "result"; "confidence"; "ci_low" ] reply in
      let hi = num [ "result"; "confidence"; "ci_high" ] reply in
      let d = num [ "result"; "confidence"; "delta" ] reply in
      let v = Float.min 1.0 (Float.max 0.0 value) in
      if 0.0 <= lo && lo <= v && v <= hi && hi <= 1.0 && d = Fixtures.delta then
        Degraded_ok { miss = not (lo <= expected && expected <= hi) }
      else Wrong (Printf.sprintf "malformed interval [%g, %g] around %g" lo hi value)
    end
    else if bool [ "result"; "exact" ] && Int64.equal (Int64.bits_of_float value) (Int64.bits_of_float expected)
    then Exact_ok
    else Wrong (Printf.sprintf "value %.17g, reference %.17g" value expected)

type tally = {
  mutable attempted : int;
  mutable exact_ok : int;
  mutable degraded_ok : int;
  mutable ci_miss : int;
  mutable wrong : int;
  mutable errors : int;
  mutable shed : int;
  lat : Vec.t;  (** seconds, send to reply, one per answered request *)
  at : Vec.t;  (** seconds from the phase start to each reply, same order as [lat] *)
  ok : Vec.t;  (** 1.0 for each correct reply, 0.0 otherwise, same order *)
  mutable kept : (int * float * string) list;
      (** (stream position, latency, reply line) of every [keep]-th
          position, when [keep > 0] *)
}

let new_tally () =
  { attempted = 0; exact_ok = 0; degraded_ok = 0; ci_miss = 0; wrong = 0;
    errors = 0; shed = 0; lat = Vec.create (); at = Vec.create (); ok = Vec.create ();
    kept = [] }

let correct t = t.exact_ok + t.degraded_ok
let failed t = t.attempted - correct t

let report_wrong =
  let shown = ref 0 in
  fun msg -> if !shown < 5 then (incr shown; Printf.eprintf "perfbench: wrong answer: %s\n%!" msg)

let record t ~expected ~line ~keep ~i ~dt ~at =
  let before = correct t in
  Vec.push t.lat dt;
  if keep > 0 && i mod keep = 0 then t.kept <- (i, dt, line) :: t.kept;
  (match Json.of_string line with
  | Error msg -> t.wrong <- t.wrong + 1; report_wrong ("unparsable reply: " ^ msg)
  | Ok reply -> (
      match check ~expected reply with
      | Exact_ok -> t.exact_ok <- t.exact_ok + 1
      | Degraded_ok { miss } ->
          t.degraded_ok <- t.degraded_ok + 1;
          if miss then t.ci_miss <- t.ci_miss + 1
      | Wrong msg -> t.wrong <- t.wrong + 1; report_wrong msg
      | Error_reply cls -> t.errors <- t.errors + 1; report_wrong ("typed error " ^ cls)
      | Shed -> t.shed <- t.shed + 1));
  Vec.push t.at at;
  Vec.push t.ok (if correct t > before then 1.0 else 0.0)

(* Request lines are pure functions of the stream position; without
   per-request seeds they repeat with the stream and are built once. *)
type lines = { w : Fixtures.t; cached : string array option }

let lines (w : Fixtures.t) =
  { w;
    cached =
      (if w.Fixtures.kl_seeds <> None then None
       else Some (Array.init (Array.length w.Fixtures.stream) (Fixtures.request_line w))) }

let line l i =
  match l.cached with
  | Some a -> a.(i mod Array.length a)
  | None -> Fixtures.request_line l.w i

(* CPU time of the whole machine and of this benchmark, in clock ticks,
   sampled once a second while the load runs. Other tenants of a small
   shared VM take CPU away in bursts of seconds, either as hypervisor
   steal or as busy time of processes that are neither the server nor the
   generator; [interference] is the sum of both. *)
type sample = { t : float; interference : float; total : float }

let ticks_of_stat line =
  (* fields after the command name: state is field 3, utime 14, stime 15 *)
  match String.rindex_opt line ')' with
  | None -> 0.0
  | Some i -> (
      let f = List.filter (( <> ) "") (String.split_on_char ' ' (String.sub line (i + 1) (String.length line - i - 1))) in
      match (List.nth_opt f 11, List.nth_opt f 12) with
      | Some u, Some s -> float_of_string u +. float_of_string s
      | _ -> 0.0)

let first_line path = match String.split_on_char '\n' (Server.read_file path) with l :: _ -> l | [] -> ""

let take ~pid ~t0 =
  let ours =
    ticks_of_stat (first_line "/proc/self/stat")
    +. ticks_of_stat (first_line (Printf.sprintf "/proc/%d/stat" pid))
  in
  let interference, total =
    match List.filter (( <> ) "") (String.split_on_char ' ' (first_line "/proc/stat")) with
    | "cpu" :: user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
        let f = float_of_string in
        let busy = f user +. f nice +. f system +. f irq +. f softirq in
        (f steal +. busy -. ours, busy +. f idle +. f iowait +. f steal)
    | _ -> (0.0, 0.0)
  in
  { t = now () -. t0; interference; total }

type phase = {
  tally : tally;
  elapsed_s : float;
  sent : int;  (** the stream position after the last request sent *)
  cpu_s : float;  (** generator process user + system time *)
  samples : sample list;  (** one per second of the phase, in order *)
}

let merge tallies =
  let t = new_tally () in
  Array.iter
    (fun (x : tally) ->
      t.attempted <- t.attempted + x.attempted;
      t.exact_ok <- t.exact_ok + x.exact_ok;
      t.degraded_ok <- t.degraded_ok + x.degraded_ok;
      t.ci_miss <- t.ci_miss + x.ci_miss;
      t.wrong <- t.wrong + x.wrong;
      t.errors <- t.errors + x.errors;
      t.shed <- t.shed + x.shed;
      Array.iter (Vec.push t.lat) (Vec.to_array x.lat);
      Array.iter (Vec.push t.at) (Vec.to_array x.at);
      Array.iter (Vec.push t.ok) (Vec.to_array x.ok);
      t.kept <- List.rev_append x.kept t.kept)
    tallies;
  t

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Drive [w] at the server on [port] from stream position [start] for
   [seconds]; requests still outstanding at the end are awaited. *)
let run (l : lines) ~oracle ~port ~server_pid ~start ~seconds ~keep =
  let w = l.w in
  let len = Array.length w.Fixtures.stream in
  let next = Atomic.make start in
  let t0 = now () and c0 = cpu () in
  let until = t0 +. seconds in
  let tallies = Array.init w.Fixtures.connections (fun _ -> new_tally ()) in
  let connection t =
    let c = Client.connect port in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let pending = Hashtbl.create 32 in
    let send () =
      let i = Atomic.fetch_and_add next 1 in
      Hashtbl.replace pending (i mod len) (i, now ());
      t.attempted <- t.attempted + 1;
      Client.send_line c (line l i)
    in
    try
      for _ = 1 to w.Fixtures.in_flight do send () done;
      while Hashtbl.length pending > 0 do
        let reply = Client.recv_line c in
        let t1 = now () in
        let id =
          match Json.of_string reply with
          | Ok j -> (match Json.member "id" j with Some (Json.Int id) -> id | _ -> -1)
          | Error _ -> -1
        in
        (match Hashtbl.find_opt pending id with
        | Some (i, ts) ->
            Hashtbl.remove pending id;
            record t ~expected:oracle.(w.Fixtures.stream.(i mod len)) ~line:reply ~keep ~i
              ~dt:(t1 -. ts) ~at:(t1 -. t0)
        | None ->
            t.wrong <- t.wrong + 1;
            report_wrong ("reply with unknown id: " ^ reply));
        if t1 < until then send ()
      done
    with Client.Connection_closed ->
      (* every request still outstanding stays unanswered: failed *)
      report_wrong "connection closed by the server"
  in
  let samples = ref [] in
  let sampler () =
    for k = 0 to int_of_float seconds do
      let d = t0 +. float_of_int k -. now () in
      if d > 0.0 then Thread.delay d;
      samples := take ~pid:server_pid ~t0 :: !samples
    done
  in
  let sampler = Thread.create sampler () in
  let threads = Array.map (fun t -> Thread.create connection t) tallies in
  Array.iter Thread.join threads;
  Thread.join sampler;
  { tally = merge tallies; elapsed_s = now () -. t0; sent = Atomic.get next;
    cpu_s = cpu () -. c0; samples = List.rev !samples }

(* One request on a fresh connection (set-up probe, stats ops). *)
let call ~port line =
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.send_line c line;
  Client.recv_line c

let op ~port name =
  match Json.of_string (call ~port (Printf.sprintf {|{"id":0,"op":%S}|} name)) with
  | Ok j -> Option.value (member [ "result" ] j) ~default:Json.Null
  | Error msg -> failwith ("bad " ^ name ^ " reply: " ^ msg)

type second = {
  qps : float;  (** correct replies per second *)
  p50 : float;  (** latency of the second's replies, seconds *)
  p99 : float;  (** nearest rank: the slowest reply below 100 replies *)
  replies : int;
  interference : float;  (** share of the machine's CPU time *)
}

(* Seconds whose interference is at most this share of the machine's CPU
   time are quiet, and so is the quieter half of every run. *)
let quiet_floor = 0.05

(* The run's figures over its quiet seconds. Throughput and p50 latency
   are the levels that nine in ten of those seconds meet or beat: the
   lower decile of the seconds' throughput, the upper decile of their p50
   latency. For p99, already a tail, it is the median of the seconds' p99.
   On the shared machine the benchmark was sized on, the server's speed
   switches between a slow and a fast level over stretches of seconds (by
   up to 1.8x, even for one process pinned to one CPU doing the same
   Karp-Luby work on every call, while /proc shows no other tenant busy),
   and a run catches anything from none to nearly all of the fast
   stretches. The slow decile is the level a run sustains whichever it
   catches.
   Returns the three figures, the interference of the quiet seconds as a
   share of the machine's CPU time, and every second of the run. Without
   samples (no /proc) the whole run is one second. *)
let quiet (p : phase) =
  let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
  let windows =
    match pairs p.samples with
    | [] -> [ (0.0, p.elapsed_s, 0.0, 0.0) ]
    | ps ->
        List.map
          (fun (a, b) ->
            (a.t, b.t, Float.max 0.0 (b.interference -. a.interference), b.total -. a.total))
          ps
  in
  let t = p.tally in
  let lat = Vec.to_array t.lat and at = Vec.to_array t.at and ok = Vec.to_array t.ok in
  let second (lo, hi, x, total) =
    let v = Vec.create () and good = ref 0.0 in
    Array.iteri
      (fun k a -> if lo <= a && a < hi then (Vec.push v lat.(k); good := !good +. ok.(k)))
      at;
    let v = Vec.to_array v in
    { qps = !good /. (hi -. lo); p50 = median v; p99 = quantile v 0.99; replies = Array.length v;
      interference = ratio x total }
  in
  let seconds = List.map second windows in
  let of_list f l = Array.of_list (List.map f l) in
  let cut = Float.max quiet_floor (median (of_list (fun s -> s.interference) seconds)) in
  let chosen = List.filter (fun s -> s.interference <= cut) seconds in
  let answered = List.filter (fun s -> s.replies > 0) chosen in
  ( quantile (of_list (fun s -> s.qps) chosen) 0.1,
    quantile (of_list (fun s -> s.p50) answered) 0.9,
    median (of_list (fun s -> s.p99) answered),
    ratio (sum (of_list (fun s -> s.interference) chosen)) (float_of_int (List.length chosen)),
    seconds )

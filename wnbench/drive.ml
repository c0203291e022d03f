(* The ingest load generator.

   drive.exe ingest --seed N --seconds S --trace 0|1 --server PATH --dir DIR

   Spawns `whynot serve` as a child process, in DIR as its working
   directory, and drives it over loopback HTTP from this single thread,
   closed loop, on one keep-alive connection. Every verdict of every
   batch is checked against the Definition-2 enumerator of
   [Common.Enum]. The last line of standard output is the run's result
   object. *)

open Wnb_common.Common
module H = Http_client

let batch_lines = 200
let setups = 15

(* the traced server records the spans of one request in [trace_sample] *)
let trace_sample = 4

(* --- the server process --- *)

type server = { pid : int; port : int; spawn_s : float }

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  Unix.close s;
  port

(* GET /ready on a fresh connection: Some status, None when refused. *)
let ready_status port =
  match H.connect_fd port with
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _) -> None
  | fd ->
      let c = H.create port in
      c.H.fd <- Some fd;
      let st = try Some (H.request c ~meth:"GET" ~path:"/ready" (Buffer.create 0)) with
        | H.Failed _ | Unix.Unix_error _ -> None
      in
      H.close c;
      st

(* The server runs in [dir], as a deployed binary would: not in the
   checkout, whose docs/OBSERVABILITY.md `whynot serve` would read for
   its /metrics HELP text. [exe] is an absolute path. *)
let spawn ~exe ~query ~args ~dir ~log =
  let port = free_port () in
  let argv =
    Array.of_list
      ([ exe; "serve"; String.concat "; " (List.map query_to_string query); "-p";
         string_of_int port; "--log-level"; "warn" ] @ args)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          Unix.chdir dir;
          Unix.dup2 devnull Unix.stdin;
          Unix.dup2 devnull Unix.stdout;
          Unix.dup2 err Unix.stderr;
          Unix.execv exe argv
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close devnull;
  Unix.close err;
  let rec wait () =
    match ready_status port with
    | Some 200 -> ()
    | _ ->
        if now () -. t0 > 20. then failwith "whynot serve did not become ready";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "whynot serve exited during start-up (see its log)");
        Unix.sleepf 0.0002;
        wait ()
  in
  wait ();
  { pid; port; spawn_s = now () -. t0 }

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if now () -. t0 > 20. then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
        end
        else (Unix.sleepf 0.005; wait ())
    | _ -> ()
  in
  wait ()

(* --- /metrics --- *)

let parse_metrics body =
  let t = Hashtbl.create 256 in
  List.iter
    (fun l ->
      if String.length l > 0 && l.[0] <> '#' then
        match String.rindex_opt l ' ' with
        | Some i -> (
            match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
            | Some v -> Hashtbl.replace t (String.sub l 0 i) v
            | None -> ())
        | None -> ())
    (String.split_on_char '\n' body);
  t

let metric t name = Option.value ~default:nan (Hashtbl.find_opt t ("whynot_" ^ name))

(* On the open keep-alive connection: the sequential server serves one
   connection at a time, so a second one would wait behind it. *)
let scrape c =
  let st = H.request c ~meth:"GET" ~path:"/metrics" (Buffer.create 0) in
  if st <> 200 then failwith "GET /metrics failed";
  parse_metrics (H.body_string c)

(* --- one connection's closed loop --- *)

type batch = { body : Buffer.t; mutable first_id : int; expected : digest }

type run = {
  names : string array;
  lnames : string array;  (* lowercased, as matched in verdicts *)
  enum : Enum.t;
  conn : H.t;
  g : gen;
  mutable inflight : batch;
  mutable pending : batch;  (* the next batch, made while the server works *)
  mutable prepared : bool;
  observed : digest;
  mutable sent_at : float;
  mutable busy : bool;
  mutable batches : int;
  mutable timing : bool;
  mutable win : Windows.t;  (* timed POST /ingest, 100 requests a window *)
  mutable lines : int;  (* every line answered *)
  mutable timed_lines : int;
  mutable timed_requests : int;
  mutable bytes : int;  (* response body bytes, timed phase *)
  mutable failed : int;
  mutable wrong : int;  (* batches whose verdicts differ from the enumerator *)
  mutable errors : string list;
  mutable inject_drop : bool;
}

let note r msg = if List.length r.errors < 5 then r.errors <- msg :: r.errors

let prepare r =
  if not r.prepared then begin
    let bt = r.pending in
    Buffer.clear bt.body;
    digest_reset bt.expected;
    for i = 0 to batch_lines - 1 do
      let x = next r.g in
      if i = 0 then bt.first_id <- x.id;
      add_line bt.body r.names x;
      Enum.feed r.enum x (digest_add bt.expected)
    done;
    r.prepared <- true
  end

(* Parse the JSONL verdicts of one response (body [off, off + len) of
   [b]) and compare them with the enumerator's digest of [bt]. Each line
   is {"type":"match","line":N,...,"tags":{"A":"t<id>",...},...}; the
   verdict's line must be the line that completed the match. *)
let check_verdicts r bt b off len =
  let stop = off + len in
  let k = Array.length r.names in
  let ids = Array.make k (-1) in
  let base = ref (-1) in
  digest_reset r.observed;
  let fin = ref 0 in
  let int_at i =
    let v = ref 0 and j = ref i in
    while !j < stop && Bytes.unsafe_get b !j >= '0' && Bytes.unsafe_get b !j <= '9' do
      v := (!v * 10) + Char.code (Bytes.unsafe_get b !j) - 48;
      incr j
    done;
    fin := !j;
    !v
  in
  let same_name p n name =
    n = String.length name
    &&
    let ok = ref true in
    for i = 0 to n - 1 do
      if Char.lowercase_ascii (Bytes.unsafe_get b (p + i)) <> String.unsafe_get name i then ok := false
    done;
    !ok
  in
  let pos = ref off in
  while !pos < stop do
    let eol = try min stop (Bytes.index_from b !pos '\n') with Not_found -> stop in
    if not (H.lower_eq b !pos "{\"type\":\"match\",\"line\":") then begin
      r.failed <- r.failed + 1;
      note r (Printf.sprintf "non-match verdict: %s" (Bytes.sub_string b !pos (min 200 (eol - !pos))))
    end
    else begin
      let line = int_at (!pos + 23) in
      Array.fill ids 0 k (-1);
      (* the first object inside the verdict is "tags" *)
      let p = ref (try Bytes.index_from b !fin '{' + 1 with Not_found -> eol) in
      while !p < eol && Bytes.get b !p = '"' do
        (* "NAME":"t<id>" *)
        let q = Bytes.index_from b (!p + 1) '"' in
        let rec slot s =
          if s = k then -1 else if same_name (!p + 1) (q - !p - 1) r.lnames.(s) then s else slot (s + 1)
        in
        let s = slot 0 in
        let id = int_at (q + 4) in
        if s >= 0 then ids.(s) <- id;
        p := if Bytes.get b (!fin + 1) = ',' then !fin + 2 else eol
      done;
      if Array.exists (fun i -> i < 0) ids then begin
        r.wrong <- r.wrong + 1;
        note r "verdict with missing tags"
      end
      else begin
        let last = Array.fold_left max 0 ids in
        let local = last - bt.first_id in
        if !base < 0 then base := line - local;
        if line - local <> !base || local < 0 || local >= batch_lines then begin
          r.wrong <- r.wrong + 1;
          note r (Printf.sprintf "verdict line %d is not its completing line" line)
        end;
        if r.inject_drop then r.inject_drop <- false else digest_add r.observed ids
      end
    end;
    pos := eol + 1
  done;
  if not (digest_equal bt.expected r.observed) then begin
    r.wrong <- r.wrong + 1;
    note r
      (Printf.sprintf "batch %d: %d verdicts, the enumerator expects %d" r.batches
         r.observed.count bt.expected.count)
  end

let send_ingest r =
  prepare r;
  let bt = r.pending in
  r.pending <- r.inflight;
  r.inflight <- bt;
  r.prepared <- false;
  r.sent_at <- now ();
  r.busy <- true;
  H.send r.conn ~meth:"POST" ~path:"/ingest" bt.body

(* The closed loop until [until], then let the request in flight finish.
   A completed response is set aside, the next request goes out, and
   only then is the response checked and the batch after it made: the
   generator's own work overlaps the server's. *)
let run_until r until =
  let complete status =
    let t = now () in
    let b, off, len = H.take r.conn in
    let bt = r.inflight in
    r.lines <- r.lines + batch_lines;
    if r.timing then begin
      Windows.add r.win ~ops:batch_lines ~lat_ms:((t -. r.sent_at) *. 1e3);
      r.timed_lines <- r.timed_lines + batch_lines;
      r.timed_requests <- r.timed_requests + 1;
      r.bytes <- r.bytes + len
    end;
    r.batches <- r.batches + 1;
    r.busy <- false;
    if now () < until then send_ingest r;
    if status <> 200 then begin
      r.failed <- r.failed + batch_lines;
      note r (Printf.sprintf "POST /ingest answered %d" status)
    end
    else check_verdicts r bt b off len;
    H.give_back r.conn b;
    prepare r
  in
  if now () < until then send_ingest r;
  while r.busy do
    let fd = Option.get r.conn.H.fd in
    let ready, _, _ = Unix.select [ fd ] [] [] 5.0 in
    if ready = [] then failwith "no response within 5 s";
    match H.recv r.conn with Some st -> complete st | None -> ()
  done

let new_run ~seed ~port ~inject =
  let c = compile dense_query in
  let batch () = { body = Buffer.create 16384; first_id = 0; expected = digest () } in
  {
    names = c.names; lnames = Array.map String.lowercase_ascii c.names; enum = Enum.create c;
    conn = H.create port; g = gen ~seed; inflight = batch (); pending = batch ();
    prepared = false; observed = digest (); sent_at = 0.; busy = false; batches = 0;
    timing = false; win = Windows.create ~size:100 ~cpu:(fun () -> 0.);
    lines = 0; timed_lines = 0; timed_requests = 0; bytes = 0; failed = 0; wrong = 0;
    errors = []; inject_drop = inject;
  }

(* --- one measured phase against one server --- *)

type phase = {
  r : run;
  elapsed : float;
  server_cpu : float;
  client_cpu : float;
  minor_words : float;
  rss_mb : float;
  syscr : int;
  syscw : int;
  vcsw : int;
  final : (string, float) Hashtbl.t;
}

let client_cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime

let measure ~seed ~seconds ~warmup ~server ~inject =
  let pid = string_of_int server.pid in
  let r = new_run ~seed ~port:server.port ~inject in
  run_until r (now () +. warmup);
  let m0 = scrape r.conn in
  let io0 = (io_field pid "syscr", io_field pid "syscw") and v0 = voluntary_switches pid in
  r.win <- Windows.create ~size:100 ~cpu:(fun () -> cpu_seconds pid);
  let s0 = cpu_seconds pid and c0 = client_cpu () and t0 = now () in
  Windows.start r.win;
  r.timing <- true;
  run_until r (t0 +. seconds);
  r.timing <- false;
  let elapsed = now () -. t0 and c1 = client_cpu () and s1 = cpu_seconds pid in
  let io1 = (io_field pid "syscr", io_field pid "syscw") and v1 = voluntary_switches pid in
  let m1 = scrape r.conn in
  let rss = peak_rss_mb pid in
  H.close r.conn;
  let d (a, b) = match (a, b) with Some a, Some b -> b - a | _ -> 0 in
  {
    r; elapsed; server_cpu = s1 -. s0; client_cpu = c1 -. c0;
    minor_words = metric m1 "runtime_gc_minor_words" -. metric m0 "runtime_gc_minor_words";
    rss_mb = rss; syscr = d (fst io0, fst io1); syscw = d (snd io0, snd io1); vcsw = v1 - v0;
    final = m1;
  }

(* Program-side counters that must agree with what was sent. *)
let check_final p =
  let r = p.r in
  let lines = metric p.final "serve_ingest_lines" in
  if lines <> float_of_int r.lines then
    note r (Printf.sprintf "serve.ingest.lines = %.0f, sent %d" lines r.lines);
  if metric p.final "detector_dropped_capacity" <> 0. then note r "detector.dropped_capacity > 0";
  if metric p.final "serve_shed" <> 0. then note r "serve.shed > 0";
  lines = float_of_int r.lines
  && metric p.final "detector_dropped_capacity" = 0.
  && metric p.final "serve_shed" = 0.

(* --- traced-run helpers: the server's access log and span trace --- *)

(* The position just past the first [pat] in [line], or -1. *)
let after line pat =
  let n = String.length pat and len = String.length line in
  let rec at i j = j = n || (line.[i + j] = pat.[j] && at i (j + 1)) in
  let rec find i = if i + n > len then -1 else if at i 0 then i + n else find (i + 1) in
  find 0

let json_int_field line key =
  match after line ("\"" ^ key ^ "\":") with
  | -1 -> None
  | i ->
      let j = ref i in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub line i (!j - i))

let json_str_field line key =
  match after line ("\"" ^ key ^ "\":\"") with
  | -1 -> None
  | i -> Some (String.sub line i (String.index_from line i '"' - i))

let lines_of path =
  match read_file path with
  | None -> []
  | Some s -> String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

(* Per POST /ingest access line: the read and write stage micros. *)
let access_stages path =
  let read = Samples.create () and write = Samples.create () in
  List.iter
    (fun l ->
      if json_str_field l "event" = Some "serve.access" && json_str_field l "path" = Some "/ingest"
      then begin
        let add s k = match json_int_field l k with Some v -> Samples.add s (float_of_int v) | None -> () in
        add read "read_us";
        add write "write_us"
      end)
    (lines_of path);
  (Samples.to_array read, Samples.to_array write)

(* Durations (us) of the spans named [name] in a jsonl trace. *)
let span_durations path name =
  let opened = Hashtbl.create 4096 in
  let out = Samples.create () in
  List.iter
    (fun l ->
      match (json_str_field l "type", json_str_field l "name") with
      | Some ty, Some n when String.equal n name -> (
          let key = (json_int_field l "trace", json_int_field l "span") in
          let ts = Option.value ~default:0 (json_int_field l "ts_ns") in
          match ty with
          | "span.open" -> Hashtbl.replace opened key ts
          | "span.close" -> (
              match Hashtbl.find_opt opened key with
              | Some t0 ->
                  Hashtbl.remove opened key;
                  Samples.add out (float_of_int (ts - t0) /. 1e3)
              | None -> ())
          | _ -> ())
      | _ -> ())
    (lines_of path);
  Samples.to_array out

(* --- entry points --- *)

let ingest a =
  let seed = int_of_string (arg a "seed") in
  let seconds = float_of_string (arg a "seconds") and traced = arg ~default:"0" a "trace" = "1" in
  let exe = arg a "server" in
  let dir = let d = arg a "dir" in if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d in
  let inject = arg ~default:"none" a "inject" = "drop-match" in
  let warmup = float_of_string (arg ~default:"1.5" a "warmup") in
  let log name = Filename.concat dir name in
  let spawn ?(extra = []) name = spawn ~exe ~query:dense_query ~args:extra ~dir ~log:(log name) in
  (* set-up time: spawn -> first 200 on /ready; the median of [setups]
     spawns before the run, the run's own and [setups] after it *)
  let spawns () = Array.init setups (fun _ -> let s = spawn "setup.log" in stop s; s.spawn_s) in
  let before = spawns () in
  let server = spawn "serve.log" in
  let p =
    Fun.protect ~finally:(fun () -> stop server) (fun () ->
        measure ~seed ~seconds ~warmup ~server ~inject)
  in
  let setup_s = median (Array.concat [ before; [| server.spawn_s |]; spawns () ]) in
  let r = p.r in
  let final_ok = check_final p in
  let ops = float_of_int r.timed_lines in
  let extra = ref [] in
  let per_layer =
    if not traced then []
    else begin
      (* a second server, traced, on the same inputs *)
      let tserver =
        spawn "traced.log"
          ~extra:[ "--trace"; log "trace.jsonl"; "--trace-format"; "jsonl";
                   "--trace-sample"; string_of_int trace_sample; "--access-log"; "warn" ]
      in
      let tp =
        Fun.protect ~finally:(fun () -> stop tserver) (fun () ->
            measure ~seed ~seconds ~warmup ~server:tserver ~inject:false)
      in
      let read, write = access_stages (log "traced.log") in
      let service = span_durations (log "trace.jsonl") "serve.shard.service" in
      let reqs = float_of_int r.timed_requests in
      let rate_u = ops /. p.elapsed and rate_t = float_of_int tp.r.timed_lines /. tp.elapsed in
      extra := [ ("trace_overhead_bases", Printf.sprintf "untraced %.1f ops/s, traced %.1f ops/s" rate_u rate_t) ];
      if tp.r.wrong > 0 || tp.r.failed > 0 then r.wrong <- r.wrong + tp.r.wrong + tp.r.failed;
      [
        m "http.read_syscalls_per_req" "count" (float_of_int p.syscr /. reqs);
        m "http.write_syscalls_per_req" "count" (float_of_int p.syscw /. reqs);
        m "http.ctx_switches_per_req" "count" (float_of_int p.vcsw /. reqs);
        m "http.read_us_p50" "us" (median read);
        m "http.write_us_p50" "us" (median write);
        m "http.response_bytes_per_op" "bytes" (float_of_int r.bytes /. ops);
        m "shard.service_us_p50" "us" (median service);
        m "obs.trace_overhead_pct" "%" ((rate_u -. rate_t) /. rate_u *. 100.);
        m "client.cpu_us_per_op" "us" (p.client_cpu /. ops *. 1e6);
        m "server.cpu_us_per_op" "us" (p.server_cpu /. ops *. 1e6);
      ]
    end
  in
  let windows, rate, cpu, q50, q90 = Windows.summary r.win in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" rate;
      m "latency_p50_ms" "ms" q50;
      m "cpu_us_per_op" "us" cpu;
      m "alloc_words_per_op" "words" (p.minor_words /. ops);
      m "peak_rss_mb" "MB" p.rss_mb;
    ]
  in
  let correct = final_ok && r.wrong = 0 in
  let notes =
    [ ("requests", string_of_int r.timed_requests); ("windows", string_of_int windows);
      ("latency_p90_ms", Printf.sprintf "%.3f" q90);
      ("ops_per_s_whole_phase", Printf.sprintf "%.1f" (ops /. p.elapsed));
      ("reconnects", string_of_int r.conn.H.reconnects);
      ("client_cpu_us_per_op", Printf.sprintf "%.3f" (p.client_cpu /. ops *. 1e6));
      ("errors", String.concat " | " (List.rev r.errors)) ]
    @ !extra
  in
  print_endline
    (result_line ~correct ~attempted:r.lines ~failed:r.failed ~notes (e2e @ per_layer));
  if correct && r.failed = 0 then exit 0 else exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = Array.to_list Sys.argv in
  match a with
  | _ :: "ingest" :: _ -> ingest (args ~from:2 ())
  | _ -> prerr_endline "usage: drive.exe ingest --key value ..."; exit 2

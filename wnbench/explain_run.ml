(* The explanation workloads' runner, in a process of its own per run.

   explain_run.exe gen --workload explain_rtfm|explain_and --seed N
                   --csv FILE --query FILE [--tuples K]
   explain_run.exe run --workload explain_rtfm|explain_and --csv FILE
                   --query FILE --seconds S [--inject cost-off-by-one]

   gen writes the workload's inputs ([Explain_common.write_inputs]). run times
   set-up (reading the CSV trace, parsing the query, encoding it and one
   consistency check), then explains every tuple once, untimed, and
   checks each outcome ([Explain_common.check]). Timed rounds over all
   tuples follow, each call checked against the first cost. *)

open Wnb_common.Common
open Wnb_explain.Explain_common

let setups = 25

let run a =
  let sp = spec (arg a "workload") in
  let csv = arg a "csv" and query = arg a "query" in
  let seconds = float_of_string (arg a "seconds") in
  let inject = arg ~default:"none" a "inject" = "cost-off-by-one" in
  let c = compile sp.query in
  (* set-up, timed [setups] times before the run and [setups] times
     after it; the median is reported *)
  let time_setups () =
    Array.init setups (fun _ ->
        let t0 = now () in
        ignore (load ~csv ~query);
        now () -. t0)
  in
  let before = time_setups () in
  let trace, patterns = load ~csv ~query in
  let tuples = Array.of_list (List.map snd (W.Events.Trace.bindings trace)) in
  let n = Array.length tuples in
  let errors = ref [] and failed = ref 0 and wrong = ref 0 in
  let note msg = if List.length !errors < 5 then errors := msg :: !errors in
  (* the untimed checking pass *)
  let expected =
    Array.mapi
      (fun i t ->
        match explain patterns t with
        | Error e ->
            incr failed;
            note (Printf.sprintf "tuple %d: %s" i e);
            -1
        | Ok r ->
            let cost = if inject && i = 0 then r.M.cost + 1 else r.M.cost in
            (match check c patterns t r ~cost with
            | None -> ()
            | Some e ->
                incr wrong;
                note (Printf.sprintf "tuple %d: %s" i e));
            r.M.cost)
      tuples
  in
  (* timed rounds *)
  let calls = ref 0 in
  (* latency windows of whole rounds, at least 100 calls each *)
  let win =
    Windows.create ~size:(n * ((99 + n) / n))
      ~cpu:(fun () -> let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime)
  in
  let c0 = Unix.times () and w0 = Gc.minor_words () and t0 = now () in
  Windows.start win;
  while now () -. t0 < seconds do
    for i = 0 to n - 1 do
      let s = now () in
      let r = explain patterns tuples.(i) in
      let ms = (now () -. s) *. 1e3 in
      Windows.add win ~ops:1 ~lat_ms:ms;
      incr calls;
      match r with
      | Ok r when r.M.cost = expected.(i) -> ()
      | Ok _ -> incr wrong; note (Printf.sprintf "tuple %d: cost changed between calls" i)
      | Error _ -> incr failed
    done
  done;
  let elapsed = now () -. t0 and w1 = Gc.minor_words () and c1 = Unix.times () in
  let cpu = c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime in
  let ops = float_of_int !calls in
  let windows, rate, cpu_per, q50, q90 = Windows.summary win in
  let correct = !wrong = 0 in
  let metrics =
    [
      m "setup_s" "s" (median (Array.append before (time_setups ())));
      m "ops_per_s" "1/s" rate;
      m "latency_p50_ms" "ms" q50;
      m "cpu_us_per_op" "us" cpu_per;
      m "alloc_words_per_op" "words" ((w1 -. w0) /. ops);
      m "peak_rss_mb" "MB" (peak_rss_mb "self");
    ]
  in
  let notes =
    [ ("tuples", string_of_int n); ("calls", string_of_int !calls);
      ("windows", string_of_int windows); ("latency_p90_ms", Printf.sprintf "%.3f" q90);
      ("ops_per_s_whole_phase", Printf.sprintf "%.2f" (ops /. elapsed));
      ("cpu_us_per_op_whole_phase", Printf.sprintf "%.1f" (cpu /. ops *. 1e6));
      ("errors", String.concat " | " (List.rev !errors)) ]
  in
  print_endline
    (result_line ~correct ~attempted:(!calls + n) ~failed:!failed ~notes metrics);
  if correct && !failed = 0 then exit 0 else exit 1

let () =
  let a = args ~from:2 () in
  match Array.to_list Sys.argv with
  | _ :: "gen" :: _ ->
      let sp = spec (arg a "workload") in
      let tuples = int_of_string (arg ~default:(string_of_int sp.tuples) a "tuples") in
      write_inputs sp ~seed:(int_of_string (arg a "seed")) ~tuples ~csv:(arg a "csv") ~query:(arg a "query")
  | _ :: "run" :: _ -> run a
  | _ -> prerr_endline "usage: explain_run.exe gen|run --key value ..."; exit 2

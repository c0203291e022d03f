(* The traced run's in-process probes: timed calls into single layers of
   `whynot`, on the inputs of the untraced run, with Gc words per call and
   the program's own counters read from [Obs]. The outputs of the probed
   layers are checked as in the untraced runs: the detector's matches, the
   inline service's verdicts and the shards' matches against the
   benchmark's enumerator, every repair with [Explain_common.check].

   layers.exe --workload ingest_dense --seed N --seconds S
   layers.exe --workload explain_rtfm|explain_and --seed N --seconds S
              --csv FILE --query FILE *)

open Wnb_common.Common
open Wnb_explain.Explain_common

let words () = Gc.minor_words ()

(* [f ()] once: (result, seconds, minor words) *)
let timed f =
  let w0 = words () and t0 = now () in
  let r = f () in
  let t1 = now () and w1 = words () in
  (r, t1 -. t0, w1 -. w0)

(* The median seconds and words of [reps] runs of [f]. *)
let median_of reps f =
  let runs = Array.init reps (fun _ -> let _, t, w = timed f in (t, w)) in
  (median (Array.map fst runs), median (Array.map snd runs))

let counter name = float_of_int (Option.value ~default:0 (W.Obs.find_counter name))

(* --- ingest layers, on the batches the generator sends --- *)

let batches = 50

let ingest seed =
  let c = compile dense_query in
  let patterns = parse_patterns (String.concat ";" (List.map query_to_string dense_query)) in
  let g = gen ~seed in
  let insts = Array.init batches (fun _ -> Array.init 200 (fun _ -> next g)) in
  let bodies =
    Array.map
      (fun xs ->
        let buf = Buffer.create 8192 in
        Array.iter (add_line buf c.names) xs;
        Buffer.contents buf)
      insts
  in
  (* what every probed layer must find: the enumerator's matches *)
  let expected = digest () in
  let enum = Enum.create c in
  Array.iter (Array.iter (fun x -> Enum.feed enum x (digest_add expected))) insts;
  let errors = ref [] in
  let agree what d =
    if not (digest_equal d expected) then
      errors := Printf.sprintf "%s: %d matches, the enumerator finds %d" what d.count expected.count :: !errors
  in
  (* a match's line ids in slot order, from its tags "t<id>" *)
  let add_match d (mt : W.Cep.Detector.match_) =
    let ids = Array.make (Array.length c.names) (-1) in
    List.iter
      (fun (e, tag) -> ids.(slot_of c e) <- int_of_string (String.sub tag 1 (String.length tag - 1)))
      mt.tags;
    digest_add d ids
  in
  let lines =
    Array.map (fun body -> List.filter (( <> ) "") (String.split_on_char '\n' body)) bodies
  in
  let all_lines = Array.of_list (List.concat (Array.to_list lines)) in
  let n = float_of_int (Array.length all_lines) in
  let parsed =
    Array.mapi
      (fun i l ->
        match W.Serve.Ingest.parse_line ~lineno:(i + 1) l with
        | Ok (Some k) -> k
        | _ -> failwith "unparsable generated line")
      all_lines
  in
  let parse_s, parse_w =
    median_of 5 (fun () ->
        Array.iteri (fun i l -> ignore (W.Serve.Ingest.parse_line ~lineno:(i + 1) l)) all_lines)
  in
  let template_s, _ = median_of 11 (fun () -> W.Cep.Detector.template patterns) in
  (* detector.feed: one detector, as the keyless shard keeps it *)
  let d = W.Cep.Detector.of_template (W.Cep.Detector.template patterns) in
  let found = ref [] and nmatch = ref 0 in
  let (), feed_s, feed_w =
    timed (fun () ->
        Array.iteri
          (fun i (k : W.Serve.Ingest.keyed) ->
            match W.Cep.Detector.feed d k.instance with
            | [] -> ()
            | ms ->
                nmatch := !nmatch + List.length ms;
                found := (i + 1, ms) :: !found)
          parsed)
  in
  let fed = digest () in
  List.iter (fun (_, ms) -> List.iter (add_match fed) ms) !found;
  agree "Detector.feed" fed;
  let peak = float_of_int (Option.value ~default:0 (W.Obs.find_gauge "detector.partials_peak")) in
  (* verdict rendering of the same matches *)
  let bytes = ref 0 in
  let (), render_s, render_w =
    timed (fun () ->
        List.iter
          (fun (line, ms) ->
            List.iter
              (fun m ->
                let s = W.Report.Json.to_string (W.Serve.Service.match_json ~line m) in
                bytes := !bytes + String.length s + 1)
              ms)
          !found)
  in
  let per_match x = if !nmatch = 0 then 0. else x /. float_of_int !nmatch in
  (* the whole inline service, no socket *)
  let svc = W.Serve.Service.create patterns in
  let responses, handle_s, handle_w =
    timed (fun () ->
        Array.map
          (fun body ->
            W.Serve.Service.handle svc
              { W.Serve.Http.meth = "POST"; path = "/ingest"; headers = []; body })
          bodies)
  in
  W.Serve.Service.shutdown svc;
  let verdicts =
    Array.fold_left
      (fun acc (r : W.Serve.Http.response) ->
        if r.status <> 200 then errors := "inline POST /ingest failed" :: !errors;
        String.split_on_char '\n' r.body
        |> List.fold_left
             (fun acc l -> if String.starts_with ~prefix:"{\"type\":\"match\"" l then acc + 1 else acc)
             acc)
      0 responses
  in
  if verdicts <> expected.count then
    errors := Printf.sprintf "Service.handle: %d match verdicts, the enumerator finds %d" verdicts expected.count :: !errors;
  (* Shard.submit: one inline shard, as served *)
  let pool = W.Serve.Shard.create ~shards:1 ~threaded:false patterns in
  let per_batch =
    let pos = ref 0 in
    Array.map
      (fun ls ->
        let k = List.length ls in
        let b = Array.init k (fun j -> let p = parsed.(!pos + j) in (p.W.Serve.Ingest.key, p.instance)) in
        pos := !pos + k;
        b)
      lines
  in
  let outcomes, submit_s, _ = timed (fun () -> Array.map (W.Serve.Shard.submit pool) per_batch) in
  W.Serve.Shard.stop pool;
  let submitted = digest () in
  Array.iter
    (function
      | W.Serve.Shard.Processed rs ->
          Array.iter (function Ok ms -> List.iter (add_match submitted) ms | Error _ -> ()) rs
      | W.Serve.Shard.Shed -> errors := "Shard.submit shed a batch" :: !errors)
    outcomes;
  agree "Shard.submit" submitted;
  ( [
    m "ingest.parse_ns_per_line" "ns" (parse_s /. n *. 1e9);
    m "ingest.parse_words_per_line" "words" (parse_w /. n);
    m "detector.template_ms" "ms" (template_s *. 1e3);
    m "detector.feed_us_per_event" "us" (feed_s /. n *. 1e6);
    m "detector.feed_words_per_event" "words" (feed_w /. n);
    m "detector.partials_peak" "count" peak;
    m "detector.matches_per_event" "count" (float_of_int !nmatch /. n);
    m "render.us_per_match" "us" (per_match (render_s *. 1e6));
    m "render.words_per_match" "words" (per_match render_w);
    m "render.bytes_per_match" "bytes" (per_match (float_of_int !bytes));
    m "service.handle_us_per_event" "us" (handle_s /. n *. 1e6);
    m "service.handle_words_per_event" "words" (handle_w /. n);
    m "shard.submit_us_per_batch" "us" (submit_s /. float_of_int batches *. 1e6);
  ],
    [ ("errors", String.concat " | " (List.rev !errors)) ],
    !errors = [],
    int_of_float n )

(* --- explanation layers --- *)

let explain_layers ~workload ~csv ~query ~seconds =
  let c = compile (spec workload).query in
  let trace, patterns = load ~csv ~query in
  let tuples = Array.of_list (List.map snd (W.Events.Trace.bindings trace)) in
  let n = Array.length tuples in
  let encode_s, _ = median_of 51 (fun () -> W.Tcn.Encode.pattern_set patterns) in
  let check_s, _ =
    median_of 21 (fun () ->
        W.Explain.Consistency.check ~strategy:W.Explain.Consistency.Pruned patterns)
  in
  let pass () = Array.iter (fun t -> ignore (W.Explain.Pipeline.explain patterns t)) tuples in
  (* whole passes for at least [budget] seconds: (us per tuple, words per tuple) *)
  let rate budget =
    let calls = ref 0 and secs = ref 0. and ws = ref 0. in
    while !secs < budget do
      let (), s, w = timed pass in
      calls := !calls + n;
      secs := !secs +. s;
      ws := !ws +. w
    done;
    (!secs /. float_of_int !calls *. 1e6, !ws /. float_of_int !calls)
  in
  (* the first pass also checks each outcome, as the untimed run does *)
  let errors = ref [] in
  Array.iteri
    (fun i t ->
      match explain patterns t with
      | Ok r -> (
          match check c patterns t r ~cost:r.M.cost with
          | None -> ()
          | Some e -> errors := Printf.sprintf "tuple %d: %s" i e :: !errors)
      | Error e -> errors := Printf.sprintf "tuple %d: %s" i e :: !errors)
    tuples;
  let budget = Float.max 1. (seconds /. 4.) in
  let explain_us, explain_w = rate budget in
  (* the program's work counters over one pass *)
  let names =
    [ "bnb.nodes_expanded"; "bnb.leaves_solved"; "bnb.pruned_bound"; "stn_inc.pushes";
      "simplex.pivots"; "simplex.phase1_iters"; "simplex.infeasible" ]
  in
  let before = List.map counter names in
  pass ();
  let per_tuple =
    List.map2 (fun name b -> (name, (counter name -. b) /. float_of_int n)) names before
  in
  (* the binding search on its own, its leaf solves timed by a wrapper *)
  let net = W.Tcn.Encode.pattern_set patterns in
  let solves = ref 0 and solve_s = ref 0. in
  let repair ?cutoff t ivs =
    let t0 = now () in
    let r = W.Explain.Lp_repair.repair ?cutoff t ivs in
    solve_s := !solve_s +. (now () -. t0);
    incr solves;
    r
  in
  let extended = Array.map (W.Tcn.Encode.extend net) tuples in
  let bnb_s = ref 0. and rounds = ref 0 in
  while !bnb_s < budget do
    let (), s, _ =
      timed (fun () -> Array.iter (fun t -> ignore (W.Explain.Bnb.search ~repair net t)) extended)
    in
    bnb_s := !bnb_s +. s;
    incr rounds
  done;
  let calls = float_of_int (!rounds * n) in
  let bnb_us = !bnb_s /. calls *. 1e6 and solve_us = !solve_s /. calls *. 1e6 in
  (* the pipeline's steps around the search, timed directly: the matcher,
     the consistency check, and encoding and extending the network *)
  let overhead_s, _ =
    median_of 5 (fun () ->
        Array.iter
          (fun t ->
            ignore (W.Pattern.Matcher.matches_set t patterns);
            ignore (W.Explain.Consistency.check ~strategy:W.Explain.Consistency.Pruned patterns);
            let net = W.Tcn.Encode.pattern_set patterns in
            ignore (W.Tcn.Encode.extend net t))
          tuples)
  in
  let overhead_us = overhead_s /. float_of_int n *. 1e6 in
  (* tracing on, same passes *)
  W.Obs.Trace.configure ~sample:1 ();
  W.Obs.Trace.enable ();
  let traced_us, _ = rate budget in
  W.Obs.Trace.disable ();
  let untraced_rate = 1e6 /. explain_us and traced_rate = 1e6 /. traced_us in
  let pt name = List.assoc name per_tuple in
  ( [
      m "encode.us" "us" (encode_s *. 1e6);
      m "consistency.check_us" "us" (check_s *. 1e6);
      m "pipeline.overhead_us_per_tuple" "us" overhead_us;
      m "bnb.nodes_per_tuple" "count" (pt "bnb.nodes_expanded");
      m "bnb.leaves_per_tuple" "count" (pt "bnb.leaves_solved");
      m "bnb.pruned_bound_per_tuple" "count" (pt "bnb.pruned_bound");
      m "bnb.self_us_per_tuple" "us" (bnb_us -. solve_us);
      m "stn_inc.pushes_per_tuple" "count" (pt "stn_inc.pushes");
      m "solver.solves_per_tuple" "count" (float_of_int !solves /. calls);
      m "solver.us_per_solve" "us" (!solve_s /. float_of_int !solves *. 1e6);
      m "solver.share" "ratio" (solve_us /. (bnb_us +. overhead_us));
      m "simplex.pivots_per_tuple" "count" (pt "simplex.pivots");
      m "simplex.phase1_iters_per_tuple" "count" (pt "simplex.phase1_iters");
      m "simplex.infeasible_per_tuple" "count" (pt "simplex.infeasible");
      m "explain.words_per_tuple" "words" explain_w;
      m "obs.trace_overhead_pct" "%" ((untraced_rate -. traced_rate) /. untraced_rate *. 100.);
    ],
    [ ("trace_overhead_bases",
       Printf.sprintf "untraced %.1f tuples/s, traced %.1f tuples/s" untraced_rate traced_rate);
      ("explain_us_per_tuple", Printf.sprintf "%.1f" explain_us);
      ("errors", String.concat " | " (List.rev !errors)) ],
    !errors = [],
    n )

let () =
  let a = args () in
  let workload = arg a "workload" in
  let metrics, notes, correct, attempted =
    if String.equal workload "ingest_dense" then ingest (int_of_string (arg a "seed"))
    else
      explain_layers ~workload ~csv:(arg a "csv") ~query:(arg a "query")
        ~seconds:(float_of_string (arg a "seconds"))
  in
  print_endline (result_line ~correct ~attempted ~failed:0 ~notes metrics);
  if not correct then exit 1

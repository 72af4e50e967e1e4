(* H1 — what does the host pay?

   Runs the allocation-churn workload through P1's driver with the span
   profiler attached. Every span on its one stack carries monotonic host
   nanoseconds and GC allocated words next to its virtual cycles, so
   every hot span gets host-ns/op, allocated-words/op, and a
   host-ns-per-simulated-cycle ratio.

   Each driver op (malloc/free/touch) is wrapped in a top-level span, so
   the whole measured workload — driver and kernel alike — lands in the
   tree; the attributed fraction should be ~1.0. Self-gauges (OCaml heap
   words, GC collections, RSS) are sampled inside the op span so the
   sampling cost is attributed too, not hidden in the remainder.

   Like P1, the profiler attaches AFTER machine and heap setup: boot cost
   is out of scope. Word and cycle counts are deterministic for a fixed
   binary; only the ns values are host noise. *)

let default_ops = 400

(* Replay the churn trace with each driver op in its own root span,
   sampling the self-gauges before the span closes. Returns the kernel
   and the profile. *)
let run_churn ?(ops = default_ops) backend =
  Exp_profile.drive ~ops backend ~instrument:(fun _ profile ->
      {
        Exp_profile.op =
          (fun name f ->
            Sim.Profile.span profile name (fun () ->
                let r = f () in
                Sim.Profile.sample_self profile;
                r));
      })

(* The "host" section of the bench JSON: one host export per churn
   backend. Word/call/vcycle counts are deterministic per binary —
   bench-diff gates on those under --gate-host-alloc; ns is report-only. *)
let to_json ?(ops = default_ops) () =
  let backend_json backend = Sim.Profile.host_to_json (snd (run_churn ~ops backend)) in
  Sim.Json.Obj
    [
      ("ops", Sim.Json.Int ops);
      ("churn_malloc", backend_json `Malloc);
      ("churn_fom", backend_json `Fom);
    ]

let run ?(ops = default_ops) () =
  Bench_env.print_header "H1"
    "Host-side cost attribution: wall-clock ns and GC allocated words per span.";
  List.iter
    (fun (name, backend) ->
      let _, profile = run_churn ~ops backend in
      Printf.printf "--- churn_%s (%d ops) ---\n" name ops;
      Format.printf "%a@." Sim.Profile.pp_host profile)
    [ ("malloc", `Malloc); ("fom", `Fom) ]

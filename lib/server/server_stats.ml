type outcome = Ok_reply | Bad_request | Overloaded | Timeout | Internal

(* Bounded latency reservoir: past [reservoir_size] samples the window
   slides (ring buffer), keeping percentiles recent and memory O(1). *)
let reservoir_size = 4096

type t = {
  lock : Mutex.t;
  mutable requests : int;
  mutable completed : int;
  mutable ok : int;
  mutable bad_request : int;
  mutable overloaded : int;
  mutable timeout : int;
  mutable internal : int;
  mutable queue_high_water : int;
  latencies : float array;  (* seconds; ring buffer *)
  mutable latency_count : int;  (* total ever recorded *)
}

let create () =
  {
    lock = Mutex.create ();
    requests = 0;
    completed = 0;
    ok = 0;
    bad_request = 0;
    overloaded = 0;
    timeout = 0;
    internal = 0;
    queue_high_water = 0;
    latencies = Array.make reservoir_size 0.;
    latency_count = 0;
  }

let tally t outcome =
  match outcome with
  | Ok_reply -> t.ok <- t.ok + 1
  | Bad_request -> t.bad_request <- t.bad_request + 1
  | Overloaded -> t.overloaded <- t.overloaded + 1
  | Timeout -> t.timeout <- t.timeout + 1
  | Internal -> t.internal <- t.internal + 1

let record t ~outcome ~queue_s:_ ~wall_s =
  Mutex.protect t.lock (fun () ->
      t.requests <- t.requests + 1;
      t.completed <- t.completed + 1;
      tally t outcome;
      t.latencies.(t.latency_count mod reservoir_size) <- wall_s;
      t.latency_count <- t.latency_count + 1)

let record_loop_reply t ~outcome =
  Mutex.protect t.lock (fun () ->
      t.requests <- t.requests + 1;
      tally t outcome)

let observe_queue_depth t depth =
  Mutex.protect t.lock (fun () ->
      if depth > t.queue_high_water then t.queue_high_water <- depth)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let snapshot t =
  let ( requests,
        completed,
        ok,
        bad_request,
        overloaded,
        timeout,
        internal,
        queue_high_water,
        samples ) =
    Mutex.protect t.lock (fun () ->
        let n = min t.latency_count reservoir_size in
        ( t.requests,
          t.completed,
          t.ok,
          t.bad_request,
          t.overloaded,
          t.timeout,
          t.internal,
          t.queue_high_water,
          Array.sub t.latencies 0 n ))
  in
  Array.sort Float.compare samples;
  let ms s = Jsonl.Float (s *. 1000.) in
  let m = Closure.memo_stats () in
  let s = Cert_store.stats () in
  Jsonl.Obj
    [
      ("requests", Jsonl.Int requests);
      ("completed", Jsonl.Int completed);
      ("ok", Jsonl.Int ok);
      ( "errors",
        Jsonl.Obj
          [
            ("bad_request", Jsonl.Int bad_request);
            ("overloaded", Jsonl.Int overloaded);
            ("timeout", Jsonl.Int timeout);
            ("internal", Jsonl.Int internal);
          ] );
      ("latency_p50_ms", ms (percentile samples 0.50));
      ("latency_p95_ms", ms (percentile samples 0.95));
      ("queue_high_water", Jsonl.Int queue_high_water);
      ( "memo",
        Jsonl.Obj
          [
            ("hits", Jsonl.Int m.Closure.hits);
            ("misses", Jsonl.Int m.Closure.misses);
            ("entries", Jsonl.Int m.Closure.entries);
            ("enumerations", Jsonl.Int m.Closure.enumerations);
          ] );
      ( "store",
        Jsonl.Obj
          [
            ("enabled", Jsonl.Bool (Cert_store.enabled ()));
            ("hits", Jsonl.Int s.Cert_store.hits);
            ("misses", Jsonl.Int s.Cert_store.misses);
            ("writes", Jsonl.Int s.Cert_store.writes);
            ("corrupt", Jsonl.Int s.Cert_store.corrupt);
          ] );
      ( "replication",
        let r = Cert_store.repl_stats () in
        Jsonl.Obj
          [
            ("pushes", Jsonl.Int r.Cert_store.pushes);
            ("push_failures", Jsonl.Int r.Cert_store.push_failures);
            ("pulls", Jsonl.Int r.Cert_store.pulls);
            ("pull_misses", Jsonl.Int r.Cert_store.pull_misses);
            ("installs", Jsonl.Int r.Cert_store.installs);
            ("rejects", Jsonl.Int r.Cert_store.rejects);
          ] );
      ( "pool",
        let p = Pool.stats () in
        Jsonl.Obj
          [
            ("batches", Jsonl.Int p.Pool.batches);
            ("chunks", Jsonl.Int p.Pool.chunks);
            ("items", Jsonl.Int p.Pool.items);
            ("steals", Jsonl.Int p.Pool.steals);
            ("stolen_chunks", Jsonl.Int p.Pool.stolen_chunks);
            ( "domain_chunks",
              Jsonl.List
                (List.map
                   (fun (slot, n) ->
                     Jsonl.Obj
                       [ ("slot", Jsonl.Int slot); ("chunks", Jsonl.Int n) ])
                   p.Pool.domain_chunks) );
          ] );
    ]

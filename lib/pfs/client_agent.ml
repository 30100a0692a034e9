type wrec = {
  w_id : int;
  w_fid : Log.fid;
  w_off : int;
  w_len : int;
  w_flow : int;  (* causal flow id, Sim.Trace.no_flow when untraced *)
  mutable w_acked : bool;
  mutable w_durable : bool;
  mutable w_cancelled : bool;  (* superseded before reaching disk *)
  mutable w_agent_copy : bool;
  mutable w_server_copy : bool;
  mutable w_flush_ev : Sim.Engine.event_id option;
}

type write_id = wrec

module Server = struct
  type t = {
    engine : Sim.Engine.t;
    log : Log.t;
    write_delay : Sim.Time.t;
    ups : bool;
    nvram : bool;  (* battery-backed buffers survive the crash *)
    mutable is_crashed : bool;
    mutable records : wrec list;  (* every write ever, for auditing *)
    mutable next_id : int;
    mutable received : int;
    mutable to_disk : int;
    mutable cancelled : int;
    mutable on_durable : (wrec -> unit) option;  (* notify agents *)
  }

  let create engine ~log ?(write_delay = Sim.Time.sec 30) ?(ups = false)
      ?(nvram = false) () =
    {
      engine;
      log;
      write_delay;
      ups;
      nvram;
      is_crashed = false;
      records = [];
      next_id = 0;
      received = 0;
      to_disk = 0;
      cancelled = 0;
      on_durable = None;
    }

  let create_file t = Log.create_file t.log ()

  let flush_write t w =
    (match w.w_flush_ev with
    | Some ev ->
        ignore (Sim.Engine.cancel t.engine ev);
        w.w_flush_ev <- None
    | None -> ());
    if w.w_server_copy && not (w.w_durable || w.w_cancelled) then begin
      w.w_server_copy <- false;
      if Log.file_exists t.log w.w_fid then begin
        t.to_disk <- t.to_disk + 1;
        Log.write t.log w.w_fid ~off:w.w_off ~flow:w.w_flow ~len:w.w_len
          (fun _ ->
            w.w_durable <- true;
            (if w.w_flow >= 0 then
               let tr = Sim.Engine.trace t.engine in
               if Sim.Trace.flows_on tr then
                 Sim.Trace.flow_end tr
                   ~ts:(Sim.Engine.now t.engine)
                   ~sub:Sim.Subsystem.Pfs ~cat:"pfs" ~flow:w.w_flow "durable");
            match t.on_durable with Some f -> f w | None -> ())
      end
      else begin
        (* The file is gone: the write was logically cancelled. *)
        w.w_cancelled <- true;
        t.cancelled <- t.cancelled + 1
      end
    end

  (* A new write supersedes older pending writes it fully covers. *)
  let supersede t ~fid ~off ~len =
    List.iter
      (fun w ->
        if
          w.w_server_copy && (not w.w_durable) && (not w.w_cancelled)
          && w.w_fid = fid && off <= w.w_off
          && w.w_off + w.w_len <= off + len
        then begin
          w.w_cancelled <- true;
          w.w_server_copy <- false;
          t.cancelled <- t.cancelled + 1;
          match w.w_flush_ev with
          | Some ev ->
              ignore (Sim.Engine.cancel t.engine ev);
              w.w_flush_ev <- None
          | None -> ()
        end)
      t.records

  (* Receive a write from an agent (internal: called by Agent). *)
  let receive t w =
    if not t.is_crashed then begin
      t.received <- t.received + 1;
      (if w.w_flow >= 0 then
         let tr = Sim.Engine.trace t.engine in
         if Sim.Trace.flows_on tr then
           Sim.Trace.flow_step tr
             ~ts:(Sim.Engine.now t.engine)
             ~sub:Sim.Subsystem.Pfs ~cat:"pfs" ~flow:w.w_flow "srv.buffer");
      supersede t ~fid:w.w_fid ~off:w.w_off ~len:w.w_len;
      w.w_server_copy <- true;
      if not (List.memq w t.records) then t.records <- w :: t.records;
      w.w_flush_ev <-
        Some (Sim.Engine.schedule t.engine ~delay:t.write_delay (fun () ->
                  w.w_flush_ev <- None;
                  flush_write t w));
      true
    end
    else false

  let delete_file t fid =
    if not t.is_crashed then begin
      List.iter
        (fun w ->
          if
            w.w_server_copy && (not w.w_durable) && (not w.w_cancelled)
            && w.w_fid = fid
          then begin
            w.w_cancelled <- true;
            w.w_server_copy <- false;
            t.cancelled <- t.cancelled + 1;
            match w.w_flush_ev with
            | Some ev ->
                ignore (Sim.Engine.cancel t.engine ev);
                w.w_flush_ev <- None
            | None -> ()
          end)
        t.records;
      if Log.file_exists t.log fid then Log.delete t.log fid ~k:(fun _ -> ())
    end

  let flush_all t =
    List.iter (fun w -> if w.w_server_copy then flush_write t w) t.records

  let crash t =
    if t.ups then
      (* The UPS gives the server time to write its volatile buffers. *)
      flush_all t;
    t.is_crashed <- true;
    List.iter
      (fun w ->
        if w.w_server_copy && not w.w_durable then begin
          (* Battery-backed memory keeps the buffered data across the
             crash; only the pending flush timer is lost. *)
          if not t.nvram then w.w_server_copy <- false;
          match w.w_flush_ev with
          | Some ev ->
              ignore (Sim.Engine.cancel t.engine ev);
              w.w_flush_ev <- None
          | None -> ()
        end)
      t.records

  let recover t =
    t.is_crashed <- false;
    (* Recovery replays whatever NVRAM preserved. *)
    if t.nvram then flush_all t
  let writes_received t = t.received
  let disk_writes t = t.to_disk
  let writes_cancelled t = t.cancelled
end

module Agent = struct
  type t = {
    engine : Sim.Engine.t;
    server : Server.t;
    rng : Sim.Rng.t;
    mutable is_crashed : bool;
    mutable copies : wrec list;
    mutable retries : int;
  }

  (* The one-way client-server latency, and the retry backoff: from
     100 ms, doubling up to 10 s. *)
  let net_delay = Sim.Time.ms 1
  let retry_delay = Sim.Time.ms 100
  let retry_cap = Sim.Time.sec 10

  let create engine ~server =
    let t =
      {
        engine;
        server;
        rng = Sim.Rng.create ();
        is_crashed = false;
        copies = [];
        retries = 0;
      }
    in
    (* Durability notifications let the agent drop its copies. *)
    server.Server.on_durable <-
      Some
        (fun w ->
          ignore
            (Sim.Engine.schedule engine ~delay:net_delay (fun () ->
                 w.w_agent_copy <- false;
                 t.copies <- List.filter (fun c -> not (c == w)) t.copies)));
    t

  (* Capped exponential backoff with jitter for re-offering a write to
     a crashed server.  Retry events are daemons: a server that never
     recovers must not keep an unbounded run alive. *)
  let backoff t attempt =
    let shift = Stdlib.min attempt 16 in
    let base =
      Sim.Time.min (Sim.Time.mul retry_delay (1 lsl shift)) retry_cap
    in
    let f = Sim.Rng.uniform t.rng ~lo:0.9 ~hi:1.1 in
    Sim.Time.max (Sim.Time.ns 1)
      (Sim.Time.of_sec_f (Sim.Time.to_sec_f base *. f))

  let send t w ~ack =
    let rec offer ~attempt () =
      (* The write may have been resolved some other way while we were
         backing off (superseded, deleted, replayed after recovery, or
         the agent itself crashed and dropped its copy). *)
      let still_wanted =
        (not t.is_crashed) && w.w_agent_copy && (not w.w_durable)
        && (not w.w_cancelled)
        && not w.w_server_copy
      in
      if still_wanted || attempt = 0 then begin
        if Server.receive t.server w then
          (* Acknowledgement comes back one net delay later. *)
          ignore
            (Sim.Engine.schedule t.engine ~delay:net_delay (fun () ->
                 if not w.w_acked then begin
                   w.w_acked <- true;
                   match ack with Some f -> f () | None -> ()
                 end))
        else begin
          (* Server down: keep the copy and try again later. *)
          t.retries <- t.retries + 1;
          ignore
            (Sim.Engine.schedule ~daemon:true t.engine
               ~delay:(backoff t attempt)
               (offer ~attempt:(attempt + 1)))
        end
      end
    in
    ignore (Sim.Engine.schedule t.engine ~delay:net_delay (offer ~attempt:0))

  let write t ~fid ~off ~len ?ack () =
    let server = t.server in
    (* Each application write is one causal flow: agent buffer → server
       buffer → (30 s later, unless cancelled) the log, RAID and disks.
       Superseded writes never reach "durable", so the audit shows them
       as incomplete flows — exactly the paper's point about write
       cancellation. *)
    let flow =
      let tr = Sim.Engine.trace t.engine in
      if Sim.Trace.flows_on tr then begin
        let f = Sim.Trace.alloc_flow tr in
        Sim.Trace.flow_start tr
          ~ts:(Sim.Engine.now t.engine)
          ~sub:Sim.Subsystem.Pfs ~cat:"pfs"
          ~args:[ ("stream", Sim.Trace.Str "pfs:agent") ]
          ~flow:f "agent.write";
        f
      end
      else Sim.Trace.no_flow
    in
    let w =
      {
        w_id = server.Server.next_id;
        w_fid = fid;
        w_off = off;
        w_len = len;
        w_flow = flow;
        w_acked = false;
        w_durable = false;
        w_cancelled = false;
        w_agent_copy = true;
        w_server_copy = false;
        w_flush_ev = None;
      }
    in
    server.Server.next_id <- server.Server.next_id + 1;
    server.Server.records <- w :: server.Server.records;
    t.copies <- w :: t.copies;
    send t w ~ack;
    w

  let delete t ~fid =
    ignore
      (Sim.Engine.schedule t.engine ~delay:net_delay (fun () ->
           Server.delete_file t.server fid))

  let crash t =
    t.is_crashed <- true;
    List.iter (fun w -> w.w_agent_copy <- false) t.copies;
    t.copies <- []

  let replay t =
    if not t.is_crashed then
      List.iter
        (fun w ->
          if
            w.w_agent_copy && (not w.w_durable) && (not w.w_cancelled)
            && not w.w_server_copy
          then send t w ~ack:None)
        t.copies

  let copies_held t = List.length t.copies
  let retries t = t.retries
end

type audit = {
  acknowledged : int;
  durable : int;
  recoverable : int;
  lost : int;
}

let audit (server : Server.t) =
  let acknowledged = ref 0
  and durable = ref 0
  and recoverable = ref 0
  and lost = ref 0 in
  List.iter
    (fun w ->
      if w.w_acked && not w.w_cancelled then begin
        incr acknowledged;
        (* A server-side copy flag survives a crash only when NVRAM
           holds the data, so the flag itself means "recoverable". *)
        if w.w_durable then incr durable
        else if w.w_agent_copy || w.w_server_copy then incr recoverable
        else incr lost
      end)
    server.Server.records;
  {
    acknowledged = !acknowledged;
    durable = !durable;
    recoverable = !recoverable;
    lost = !lost;
  }

(* Durable storage for the HA journal: a segmented store in [p_dir],
   optionally encrypted at rest with a key derived from the service
   keypair (deterministic in the scenario seed, so a separate recovery
   process re-derives it — the key-escrow stand-in). *)
type persist = {
  p_dir : string;
  p_segment_bytes : int;
  p_encrypt : bool;
}

type spec = {
  topo : Netsim.Topology.t;
  clients : int;
  seed : int;
  polling : Rvaas.Monitor.polling;
  provider_delay : float;
  rvaas_delay : float;
  rvaas_loss : float;
  rvaas_faults : Netsim.Faults.t;
  link_faults : Netsim.Faults.t;
  auth_timeout : float;
  auth_retry : Rvaas.Service.retry;
  poll_retry : float option;
  agent_resend : float option;
  isolation : bool;
  whitelist : (int * int) list;
  jurisdictions : string list;
  ha : Rvaas.Failover.config option;
  persist : persist option;
  engine : [ `Compiled ];  (* kept for perfbench; one engine serves *)
  frontend : Rvaas.Frontend.config;
  range_hosts : int;
}

let default_spec topo =
  {
    topo;
    clients = 2;
    seed = 42;
    polling = Rvaas.Monitor.Randomized 0.05;
    provider_delay = 1e-3;
    rvaas_delay = 1e-3;
    rvaas_loss = 0.0;
    rvaas_faults = Netsim.Faults.none;
    link_faults = Netsim.Faults.none;
    auth_timeout = 0.02;
    auth_retry = Rvaas.Service.no_retry;
    poll_retry = None;
    agent_resend = None;
    isolation = true;
    whitelist = [];
    jurisdictions = [ "EU"; "US"; "CH" ];
    ha = None;
    persist = None;
    engine = `Compiled;
    frontend = Rvaas.Frontend.default_config;
    range_hosts = 0;
  }

type t = {
  spec : spec;
  net : Netsim.Net.t;
  addressing : Sdnctl.Addressing.t;
  provider : Sdnctl.Provider.t;
  monitor : Rvaas.Monitor.t;
  service : Rvaas.Service.t;
  controller : Rvaas.Failover.t option;
  store : Support.Segment_store.t option;
  directory : Rvaas.Directory.t;
  geo_truth : Geo.Registry.t;
  agents : (int * Rvaas.Client_agent.t) list;
  service_keypair : Cryptosim.Keys.keypair;
}

let atrest_purpose = "journal-at-rest"

let storage_key_of keypair = Cryptosim.Keys.derive keypair ~purpose:atrest_purpose

let build spec =
  if spec.clients < 1 then invalid_arg "Scenario.build: need at least one client";
  if spec.range_hosts < 0 then invalid_arg "Scenario.build: range_hosts must be >= 0";
  let rng = Support.Rng.create spec.seed in
  let net = Netsim.Net.create ~seed:spec.seed spec.topo in
  (* Addressing: hosts round-robin over clients.  In range mode every
     topology host becomes the gateway of [range_hosts] addresses —
     millions of addresses ride on a handful of attachment points. *)
  let addressing = Sdnctl.Addressing.create () in
  for c = 0 to spec.clients - 1 do
    Sdnctl.Addressing.add_client addressing ~client:c ~name:(Printf.sprintf "client-%d" c)
  done;
  let hosts = Netsim.Topology.hosts spec.topo in
  List.iteri
    (fun i host ->
      let client = i mod spec.clients in
      if spec.range_hosts > 0 then
        ignore (Sdnctl.Addressing.add_range addressing ~host ~client ~count:spec.range_hosts)
      else ignore (Sdnctl.Addressing.add_host addressing ~host ~client))
    hosts;
  (* Provider control plane. *)
  let provider =
    Sdnctl.Provider.create net addressing
      ~policy:{ Sdnctl.Provider.isolation = spec.isolation; whitelist = spec.whitelist }
      ~conn_delay:spec.provider_delay
  in
  Sdnctl.Provider.install_all provider;
  (* Ground-truth switch locations. *)
  let geo_truth = Geo.Registry.create () in
  List.iter
    (fun sw ->
      Geo.Registry.set_switch geo_truth ~sw
        (Geo.Location.random rng ~jurisdictions:spec.jurisdictions))
    (Netsim.Topology.switches spec.topo);
  (* Client keys and directory. *)
  let directory = Rvaas.Directory.create () in
  let client_keys =
    List.init spec.clients (fun c -> (c, Cryptosim.Hmac.random_key rng))
  in
  List.iter
    (fun (c, key) ->
      let members = Sdnctl.Addressing.hosts_of_client addressing ~client:c in
      Rvaas.Directory.register directory
        {
          Rvaas.Directory.client = c;
          name = Printf.sprintf "client-%d" c;
          key;
          hosts =
            List.map (fun (h : Sdnctl.Addressing.host_info) -> (h.host, h.ip)) members;
          subnet = Some (Sdnctl.Addressing.subnet addressing ~client:c);
        })
    client_keys;
  (* Degraded data plane, if requested: every switch-to-switch and
     host-to-switch hop draws from the same fault model. *)
  if not (Netsim.Faults.is_none spec.link_faults) then
    Netsim.Net.set_default_link_faults net spec.link_faults;
  (* RVaaS monitor + service.  The same keypair serves every controller
     incarnation under HA, so clients' [service_public] stays valid
     across takeovers (the standby holds the same attested identity). *)
  let service_keypair = Cryptosim.Keys.generate rng ~owner:"rvaas" in
  let build_controller ~journal ~snapshot ~prefill ~conn =
    let monitor =
      Rvaas.Monitor.create net ~conn_delay:spec.rvaas_delay ~loss_prob:spec.rvaas_loss
        ~faults:spec.rvaas_faults ?poll_retry:spec.poll_retry ?snapshot ~journal ~prefill
        ?conn ~polling:spec.polling ()
    in
    let service =
      Rvaas.Service.create ~retry:spec.auth_retry
        ~frontend:spec.frontend net monitor ~directory ~geo:geo_truth
        ~keypair:service_keypair ~auth_timeout:spec.auth_timeout ()
    in
    (monitor, service)
  in
  let monitor, service, controller =
    match spec.ha with
    | None ->
      let monitor =
        Rvaas.Monitor.create net ~conn_delay:spec.rvaas_delay ~loss_prob:spec.rvaas_loss
          ~faults:spec.rvaas_faults ?poll_retry:spec.poll_retry ~polling:spec.polling ()
      in
      let service =
        Rvaas.Service.create ~retry:spec.auth_retry
          ~frontend:spec.frontend net monitor ~directory ~geo:geo_truth
          ~keypair:service_keypair ~auth_timeout:spec.auth_timeout ()
      in
      (monitor, service, None)
    | Some config ->
      let ctrl = Rvaas.Failover.start ~config ~build:build_controller net in
      (Rvaas.Failover.monitor ctrl, Rvaas.Failover.service ctrl, Some ctrl)
  in
  (* Durable journal storage: a segmented store tailing the HA journal
     (only the HA path owns a journal to persist). *)
  let store =
    match spec.persist with
    | None -> None
    | Some p ->
      let ctrl =
        match controller with
        | Some c -> c
        | None -> invalid_arg "Scenario.build: spec.persist requires spec.ha"
      in
      let crypt =
        if p.p_encrypt then
          Some (Cryptosim.Atrest.crypt ~key:(storage_key_of service_keypair))
        else None
      in
      let config = { Support.Segment_store.segment_bytes = p.p_segment_bytes; crypt } in
      Some
        (Support.Segment_store.attach ~config
           (Rvaas.Journal.log (Rvaas.Failover.journal ctrl))
           ~dir:p.p_dir)
  in
  let service_public = Rvaas.Service.public service in
  (* One agent per host. *)
  let agents =
    List.map
      (fun host ->
        let info = Option.get (Sdnctl.Addressing.host addressing ~host) in
        let key = List.assoc info.client client_keys in
        let agent =
          Rvaas.Client_agent.create net ~host ~client:info.client ~ip:info.ip ~key
            ~service_public ?resend_timeout:spec.agent_resend ()
        in
        (host, agent))
      hosts
  in
  let t =
    {
      spec;
      net;
      addressing;
      provider;
      monitor;
      service;
      controller;
      store;
      directory;
      geo_truth;
      agents;
      service_keypair;
    }
  in
  (* Let installation Flow-Mods land and one poll cycle complete. *)
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:(10.0 *. spec.provider_delay +. 0.01));
  t

let run t ~until = ignore (Netsim.Sim.run (Netsim.Net.sim t.net) ~until)

(* Under HA the controller incarnation can change (takeover); these
   accessors always resolve to the live one.  Without HA they are the
   record fields. *)
let monitor t =
  match t.controller with Some c -> Rvaas.Failover.monitor c | None -> t.monitor

let service t =
  match t.controller with Some c -> Rvaas.Failover.service c | None -> t.service

let controller t =
  match t.controller with
  | Some c -> c
  | None -> invalid_arg "Scenario.controller: spec.ha is None"

let store t =
  match t.store with
  | Some s -> s
  | None -> invalid_arg "Scenario.store: spec.persist is None"

let storage_key t = storage_key_of t.service_keypair

let agent t ~host = List.assoc host t.agents

let baseline t =
  let snapshot = Rvaas.Monitor.snapshot (monitor t) in
  Rvaas.Detector.baseline_of_flows
    (List.map
       (fun sw -> (sw, Rvaas.Snapshot.flows snapshot ~sw))
       (Rvaas.Snapshot.switches snapshot))

let policy_for t ~client =
  let topo = Netsim.Net.topology t.net in
  let own_points = Sdnctl.Addressing.access_points t.addressing topo ~client in
  let allowed_peer_points =
    List.concat_map
      (fun (src, dst) ->
        if dst = client then Sdnctl.Addressing.access_points t.addressing topo ~client:src
        else [])
      t.spec.whitelist
  in
  { (Rvaas.Detector.default_policy ~own_points) with allowed_peer_points }

let query_and_wait t ~host query ~timeout =
  let agent = agent t ~host in
  let result = ref None in
  Rvaas.Client_agent.set_answer_callback agent (fun outcome -> result := Some outcome);
  let nonce = Rvaas.Client_agent.send_query agent query in
  let sim = Netsim.Sim.now (Netsim.Net.sim t.net) in
  let deadline = sim +. timeout in
  let continue = ref true in
  while !continue do
    match !result with
    | Some _ -> continue := false
    | None ->
      let now = Netsim.Sim.now (Netsim.Net.sim t.net) in
      if now >= deadline then continue := false
      else run t ~until:(Float.min deadline (now +. (timeout /. 100.0)))
  done;
  (match !result with
  | Some outcome when not (String.equal outcome.Rvaas.Client_agent.answer.Rvaas.Query.nonce nonce)
    ->
    (* A stale outcome from an earlier query on this agent; ignore. *)
    result := None
  | Some _ | None -> ());
  !result

let actual_flows t sw = Ofproto.Flow_table.specs (Netsim.Net.table t.net ~sw)

let range_scope t ~host =
  Option.map
    (fun (r : Sdnctl.Addressing.range_info) ->
      Rvaas.Verifier.dst_prefix_hs ~value:r.r_base ~prefix_len:r.r_prefix_len)
    (Sdnctl.Addressing.range t.addressing ~host)

let address_count t = Sdnctl.Addressing.address_count t.addressing

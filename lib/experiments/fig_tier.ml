module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Tier = Hcsgc_memsim.Tier
module Serve = Hcsgc_serve.Serve
module Reporter = Hcsgc_exec.Reporter
module Fingerprint = Hcsgc_store.Fingerprint
module Codec = Hcsgc_store.Codec
module Bootstrap = Hcsgc_stats.Bootstrap
module Render = Hcsgc_stats.Render

(* Capacities are small pages of the scaled 64 KiB layout, so the default
   sweep spans "no tier" to a 4 MiB far tier — comparable to the scaled
   working sets of every family below. *)
let default_capacities = [ 0; 4; 16; 64 ]
let default_lat_far = 800

(* All families run under the paper's strongest hotness configuration
   (config 16's knob vector) with only the tier knobs sweeping: the tier
   consumes the hotmap/EC cold evidence, so comparing capacities under a
   fixed collector isolates the tiering effect. *)
let tier_config ~capacity ~lat_far ~promote =
  Config.make ~hotness:true ~coldpage:true ~cold_confidence:1.0
    ~lazy_relocate:true ~tier_capacity_pages:capacity ~lat_far
    ~tier_promote:promote ()

(* ------------------------------------------------------------------ *)
(* Workload families                                                   *)
(* ------------------------------------------------------------------ *)

let layout = Layout.scaled ~small_page:(64 * 1024)

(* The serving workload as a plain runner experiment (Fig_serve wraps it
   in SLO analysis, which the tier figure does not need). *)
let serve_experiment ?(shard_domains = 0) ~scale () =
  let params = Fig_serve.scaled_params ~scale in
  let heap = Fig_serve.scaled_heap ~scale in
  {
    Runner.name = "serve";
    key =
      Printf.sprintf "tier-serve;%s;heap=%d;trig=%h%s"
        (Serve.params_key { params with Serve.seed = 0 })
        heap 0.10
        (Runner.em_tag shard_domains);
    make_vm =
      (fun config ->
        Vm.create ~layout ~machine_config:Scaled_machine.config
          ~mutators:params.Serve.mutators ~shard_domains ~trigger:0.10
          ~config ~max_heap:heap ());
    workload =
      (fun vm ~run -> ignore (Serve.run vm { params with Serve.seed = run }));
  }

(* The synthetic family carries a 4x cold population, so there genuinely
   are cold pages for the collector to demote; the DaCapo sims and the
   serving tier bring their natural hot/cold skew. *)
let families ?(shard_domains = 0) ~scale () =
  [
    ("synthetic", Fig_synthetic.experiment ~cold_ratio:4 ~shard_domains ~scale ());
    ("h2", Fig_dacapo.h2_experiment ~shard_domains ~scale ());
    ("tradebeans", Fig_dacapo.tradebeans_experiment ~shard_domains ~scale ());
    ("serve", serve_experiment ~shard_domains ~scale ());
  ]

(* ------------------------------------------------------------------ *)
(* Payload codec: what a job stores under its fingerprint.             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  wall : float;
  loads : float;
  llc_misses : float;
  far_loads : float;
  far_peak : int;  (** {!Tier.peak_bytes} — the DRAM-footprint saving *)
  demoted : int;
  promoted : int;
}

let codec =
  Codec.(
    record (fun wall loads llc_misses far_loads far_peak demoted promoted ->
        { wall; loads; llc_misses; far_loads; far_peak; demoted; promoted })
    |> lit "hcsgc-tier-metrics 1" |> newline
    |> field float (fun o -> o.wall)
    |> field float (fun o -> o.loads)
    |> field float (fun o -> o.llc_misses)
    |> field float (fun o -> o.far_loads)
    |> field int (fun o -> o.far_peak)
    |> field int (fun o -> o.demoted)
    |> field int (fun o -> o.promoted)
    |> newline |> seal)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let compute ~verify (exp : Runner.experiment) config run =
  let vm = exp.Runner.make_vm config in
  if verify then Vm.enable_verification vm;
  exp.Runner.workload vm ~run;
  Vm.finish vm;
  let m = Runner.collect vm in
  let far_peak =
    match Vm.tier vm with Some t -> Tier.peak_bytes t | None -> 0
  in
  {
    wall = m.Runner.wall;
    loads = m.Runner.loads;
    llc_misses = m.Runner.llc_misses;
    far_loads = m.Runner.far_loads;
    far_peak;
    demoted = m.Runner.pages_demoted;
    promoted = m.Runner.pages_promoted;
  }

let sweep ?(capacities = default_capacities) ?(lat_far = default_lat_far)
    ?(promote = true) ?(runs = 3) ?jobs ?(verify = false) ?cache ?scheduling
    ?(shard_domains = 0) ?(scale = 1) ?(progress = fun _ -> ()) () =
  let fams = families ~shard_domains ~scale () in
  let reporter = Reporter.create ~emit:progress () in
  let config cap = tier_config ~capacity:cap ~lat_far ~promote in
  (* The tier knobs enter the address by value, under an "ftier;" prefix
     on the family's experiment key. *)
  let address ((_, (exp : Runner.experiment), cap), _) =
    ("ftier;" ^ exp.Runner.key, Runner.config_value_key (config cap))
  in
  let results =
    Runner.sweep ?jobs ?cache ?scheduling
      {
        Runner.fingerprint =
          (fun ((_, run) as job) ->
            let experiment, config = address job in
            Fingerprint.make ~experiment ~config ~run ~verify);
        cost_key =
          (fun job ->
            let experiment, config = address job in
            experiment ^ "#" ^ config);
        compute =
          (fun ((fam, exp, cap), run) ->
            if run = 0 then
              Reporter.sayf reporter "tier: %s cap=%d pages (lat_far=%d)" fam
                cap lat_far;
            compute ~verify exp (config cap) run);
        codec;
      }
      ~runs
      ~job:(fun group run -> (group, run))
      (List.concat_map
         (fun (fam, exp) -> List.map (fun cap -> (fam, exp, cap)) capacities)
         fams)
  in
  List.map
    (fun (fam, _) ->
      ( fam,
        List.filter_map
          (fun ((f, _, cap), os) -> if f = fam then Some (cap, os) else None)
          results ))
    fams

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let bootstrap_seed = 42

let mean f (os : outcome array) =
  Array.fold_left (fun acc o -> acc +. f o) 0.0 os
  /. float_of_int (Array.length os)

let figure ?(runs = 3) ?(scale = 1) ?jobs ?verify ?cache ?scheduling
    ?(shard_domains = 0) ?(capacities = default_capacities)
    ?(lat_far = default_lat_far) ?(promote = true) fmt =
  let results =
    sweep ~capacities ~lat_far ~promote ~runs ?jobs ?verify ?cache ?scheduling
      ~shard_domains ~scale
      ~progress:(fun msg -> Format.eprintf "[bench] %s@." msg)
      ()
  in
  Format.fprintf fmt "=== Far-memory tier — hotness-driven page tiering ===@.";
  Format.fprintf fmt
    "collector config h+cp+cc1.0+lz%s; far latency %dc; capacities in 64 KiB \
     pages; expectation: far hit rate and DRAM savings grow with capacity \
     while the wall-time penalty stays bounded by the cold-page demotion \
     policy (only pages with no hot evidence move far)@.@."
    (if promote then "" else " (promotion off)")
    lat_far;
  List.iter
    (fun (fam, rows) ->
      let base_wall =
        match List.assoc_opt 0 rows with
        | Some os -> mean (fun o -> o.wall) os
        | None -> (
            match rows with
            | (_, os) :: _ -> mean (fun o -> o.wall) os
            | [] -> 0.0)
      in
      Format.fprintf fmt "--- %s ---@." fam;
      Render.table fmt
        ~headers:
          [ "cap"; "wall [95% CI]"; "dwall"; "far hit%"; "far loads";
            "peak far KiB"; "demoted"; "promoted" ]
        ~rows:
          (List.map
             (fun (cap, os) ->
               let est =
                 Bootstrap.estimate ~seed:bootstrap_seed
                   (Array.map (fun o -> o.wall) os)
               in
               let wall = mean (fun o -> o.wall) os in
               let llc = mean (fun o -> o.llc_misses) os in
               let far = mean (fun o -> o.far_loads) os in
               [
                 string_of_int cap;
                 Render.estimate_cell est;
                 (if base_wall > 0.0 then
                    Printf.sprintf "%+.1f%%"
                      (100.0 *. (wall -. base_wall) /. base_wall)
                  else "-");
                 (if llc > 0.0 then
                    Printf.sprintf "%.1f" (100.0 *. far /. llc)
                  else "-");
                 Printf.sprintf "%.0f" far;
                 Printf.sprintf "%.0f"
                   (mean (fun o -> float_of_int o.far_peak) os /. 1024.0);
                 Printf.sprintf "%.1f" (mean (fun o -> float_of_int o.demoted) os);
                 Printf.sprintf "%.1f"
                   (mean (fun o -> float_of_int o.promoted) os);
               ])
             rows);
      Format.fprintf fmt "@.")
    results

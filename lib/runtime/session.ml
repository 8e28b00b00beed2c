module Mem = Grt_gpu.Mem
module Mmu = Grt_gpu.Mmu
module Sku = Grt_gpu.Sku
module Shader = Grt_gpu.Shader
module Job_desc = Grt_gpu.Job_desc
module Kbase = Grt_driver.Kbase

type usage = Code | Cmd | Input | Output | Weights | Scratch

let usage_is_metastate = function Code | Cmd -> true | Input | Output | Weights | Scratch -> false

type region = {
  name : string;
  usage : usage;
  va : int64;
  pa : int64;
  model_bytes : int;
  actual_bytes : int;
}

type t = {
  drv : Kbase.t;
  mem : Mem.t;
  mmu : Mmu.t;
  as_idx : int;
  sku : Sku.t;
  clock : Grt_sim.Clock.t;
  energy : Grt_sim.Energy.t option;
  on_region : region -> unit;
  mutable code_cursor : int64;
  mutable cmd_cursor : int64;
  mutable data_cursor : int64;
  mutable regions : region list;
  mutable shader_cache : (Shader.op * int64) list;
  mutable jit_compiles : int;
  (* Synthetic physical backing for block-mapped, never-materialized model
     bytes: a distinct high range so it cannot collide with real pages. *)
  mutable phantom_pa : int64;
}

let block_size = 1 lsl 21

let cpu_work t ns =
  Grt_sim.Clock.advance_ns t.clock ns;
  match t.energy with
  | Some e ->
    Grt_sim.Energy.charge_j e Grt_sim.Energy.Cpu_busy
      (Int64.to_float ns *. 1e-9 *. Grt_sim.Energy.rail_power_w Grt_sim.Energy.Cpu_busy)
  | None -> ()

let create ~drv ~as_idx ~clock ?energy ?(on_region = fun _ -> ()) () =
  let sku =
    match Sku.find_by_id (Kbase.gpu_id drv) with
    | Some s -> s
    | None -> invalid_arg "Session.create: driver not initialized or unknown GPU"
  in
  let mmu = Kbase.create_address_space drv ~as_idx in
  {
    drv;
    mem = Kbase.mem drv;
    mmu;
    as_idx;
    sku;
    clock;
    energy;
    on_region;
    code_cursor = 0x1000_0000L;
    cmd_cursor = 0x2000_0000L;
    data_cursor = 0x4000_0000L;
    regions = [];
    shader_cache = [];
    jit_compiles = 0;
    phantom_pa = 0x40_0000_0000L;
  }

let sku t = t.sku
let as_idx t = t.as_idx
let regions t = List.rev t.regions
let jit_compiles t = t.jit_compiles

let region_by_name t name = List.find_opt (fun r -> String.equal r.name name) t.regions

let region_containing t ~va =
  List.find_opt
    (fun r ->
      Int64.compare va r.va >= 0
      && Int64.compare va (Int64.add r.va (Int64.of_int (max r.model_bytes r.actual_bytes))) < 0)
    t.regions

let flags_of_usage = function
  | Code -> Mmu.rx_code
  | Cmd -> Mmu.rw_data
  | Input | Weights -> Mmu.ro_data
  | Output | Scratch -> Mmu.rw_data

let round_up v quantum = (v + quantum - 1) / quantum * quantum

let take_va t usage bytes =
  let aligned = Int64.of_int (round_up (max bytes 1) block_size) in
  match usage with
  | Code ->
    let va = t.code_cursor in
    t.code_cursor <- Int64.add t.code_cursor aligned;
    va
  | Cmd ->
    let va = t.cmd_cursor in
    t.cmd_cursor <- Int64.add t.cmd_cursor aligned;
    va
  | Input | Output | Weights | Scratch ->
    let va = t.data_cursor in
    t.data_cursor <- Int64.add t.data_cursor aligned;
    va

let alloc t ~name ~usage ~model_bytes ~actual_bytes =
  if actual_bytes <= 0 then invalid_arg "Session.alloc: empty buffer";
  if model_bytes < actual_bytes then invalid_arg "Session.alloc: model smaller than materialized";
  let flags = flags_of_usage usage in
  let va = take_va t usage (max model_bytes actual_bytes) in
  let pages = round_up actual_bytes Mem.page_size / Mem.page_size in
  let pa = Mem.alloc_pages t.mem pages in
  (* Touch the first byte so the backing pages exist. *)
  Mem.write_u8 t.mem pa 0;
  Kbase.map_region t.drv ~mmu:t.mmu ~as_idx:t.as_idx ~va ~pa ~pages ~flags;
  (* Block-map the modeled remainder so page tables cover the paper-scale
     footprint without materializing it. *)
  let mapped = pages * Mem.page_size in
  if model_bytes > mapped then begin
    let remainder = model_bytes - mapped in
    let blocks = round_up remainder block_size / block_size in
    let block_va = Int64.add va (Int64.of_int (round_up mapped block_size)) in
    Kbase.map_block_region t.drv ~mmu:t.mmu ~as_idx:t.as_idx ~va:block_va ~pa:t.phantom_pa
      ~blocks ~flags;
    t.phantom_pa <- Int64.add t.phantom_pa (Int64.of_int (blocks * block_size))
  end;
  (* ioctl + allocator cost on the CPU side *)
  cpu_work t 25_000L;
  let region = { name; usage; va; pa; model_bytes; actual_bytes } in
  t.regions <- region :: t.regions;
  t.on_region region;
  region

let shader_for t op =
  match List.assoc_opt op t.shader_cache with
  | Some va -> va
  | None ->
    let binary = Shader.compile ~sku:t.sku ~op in
    cpu_work t Grt_sim.Costs.jit_compile_ns_per_kernel;
    t.jit_compiles <- t.jit_compiles + 1;
    let region =
      alloc t
        ~name:(Printf.sprintf "shader.%s" (Shader.op_name op))
        ~usage:Code ~model_bytes:(Bytes.length binary) ~actual_bytes:(Bytes.length binary)
    in
    Mem.write_bytes t.mem region.pa binary;
    t.shader_cache <- (op, region.va) :: t.shader_cache;
    region.va

let write_floats t region values =
  let needed = 4 * Array.length values in
  if needed > region.actual_bytes then invalid_arg "Session.write_floats: buffer too small";
  Array.iteri
    (fun i v -> Mem.write_f32 t.mem (Int64.add region.pa (Int64.of_int (4 * i))) v)
    values

let read_floats t region n =
  if 4 * n > region.actual_bytes then invalid_arg "Session.read_floats: buffer too small";
  Array.init n (fun i -> Mem.read_f32 t.mem (Int64.add region.pa (Int64.of_int (4 * i))))

let build_chain t jobs =
  if jobs = [] then invalid_arg "Session.build_chain: empty chain";
  let n = List.length jobs in
  let bytes = n * Job_desc.size_bytes in
  let region =
    alloc t
      ~name:(Printf.sprintf "chain.%d" (Grt_sim.Clock.now_ns t.clock |> Int64.to_int))
      ~usage:Cmd ~model_bytes:bytes ~actual_bytes:bytes
  in
  (* Command emission cost per job. *)
  cpu_work t (Int64.mul (Int64.of_int n) Grt_sim.Costs.runtime_job_prep_ns);
  List.iteri
    (fun i job ->
      let pa = Int64.add region.pa (Int64.of_int (i * Job_desc.size_bytes)) in
      let next_va =
        if i = n - 1 then 0L else Int64.add region.va (Int64.of_int ((i + 1) * Job_desc.size_bytes))
      in
      let shader_va =
        if Int64.equal job.Job_desc.shader_va 0L then shader_for t job.Job_desc.op
        else job.Job_desc.shader_va
      in
      Job_desc.write t.mem ~pa { job with Job_desc.next_va; shader_va })
    jobs;
  region.va

let submit t ~chain_va =
  cpu_work t Grt_sim.Costs.driver_submit_overhead_ns;
  Kbase.run_job t.drv ~as_idx:t.as_idx ~chain_va

module Sku = Grt_gpu.Sku

type devicetree = {
  compatible : string;
  model : string;
  gpu_id : int64;
  mmio_base : int64;
  irq_lines : int list;
  coherency_ace : bool;
}

let devicetree_for (sku : Sku.t) =
  let family = if Int64.compare sku.Sku.gpu_id 0x7000_0000L >= 0 then "bifrost-g2" else "bifrost" in
  {
    compatible = Printf.sprintf "arm,mali-%s" family;
    model = String.lowercase_ascii (String.map (fun c -> if c = ' ' then '-' else c) sku.Sku.name);
    gpu_id = sku.Sku.gpu_id;
    mmio_base = 0xE82C_0000L (* HiKey960's Mali block, for flavor *);
    irq_lines = [ 33; 34; 35 ];
    coherency_ace = sku.Sku.needs_snoop_disparity;
  }

type image = {
  image_name : string;
  kernel : string;
  gpu_stack : string;
  trees : devicetree list;
  measurement : Grt_tee.Attestation.measurement;
}

let default_image =
  let trees = List.map devicetree_for Sku.all in
  {
    image_name = "grt-recorder-vm";
    kernel = "linux-4.14-grt";
    gpu_stack = "acl-20.05+libmali+bifrost-r24";
    trees;
    measurement =
      {
        Grt_tee.Attestation.kernel = "linux-4.14-grt";
        gpu_stack = "acl-20.05+libmali+bifrost-r24";
        devicetree = String.concat "," (List.map (fun t -> t.model) trees);
      };
  }

type t = {
  image : image;
  tree : devicetree;
  mutable client : string option;
  mutable sessions : int;
}

type boot_error = Unsupported_gpu of int64 | Already_serving

let pp_boot_error ppf = function
  | Unsupported_gpu id -> Format.fprintf ppf "no devicetree for GPU %Lx in the VM image" id
  | Already_serving -> Format.pp_print_string ppf "VM is sealed to another client"

let boot image ~client_gpu_id =
  match List.find_opt (fun t -> Int64.equal t.gpu_id client_gpu_id) image.trees with
  | Some tree -> Ok { image; tree; client = None; sessions = 0 }
  | None -> Error (Unsupported_gpu client_gpu_id)

let selected_tree t = t.tree

let begin_session t ~client =
  match t.client with
  | Some _ -> Error Already_serving
  | None ->
    t.client <- Some client;
    t.sessions <- t.sessions + 1;
    Ok ()

let end_session t = t.client <- None

let serving t = t.client
let sessions_served t = t.sessions

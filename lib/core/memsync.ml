include Grt_tee.Memsync

include Flexcl_util.Cache

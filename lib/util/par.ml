let recommended_domains () = Domain.recommended_domain_count ()

// Package patterns implements §4.1: detecting front-end deployment
// patterns from DNS observations. The heuristics are the paper's,
// verbatim: a direct A answer means a VM front end (P1); CNAMEs ending
// in elb.amazonaws.com mean ELB (P2); CNAMEs containing
// elasticbeanstalk or the Heroku names mean PaaS (P2/P3); cloudapp.net
// means an Azure Cloud Service; trafficmanager.net means Azure TM;
// addresses inside CloudFront's range or msecnd.net CNAMEs mean CDN
// (P4); anything else is an unidentified CNAME.
package patterns

import (
	"sort"
	"strings"

	"cloudscope/internal/core/dataset"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/parallel"
	"cloudscope/internal/simnet"
	"cloudscope/internal/stats"
)

// Feature is a detected front-end feature.
type Feature string

// Features, named as Table 7 rows.
const (
	FeatureVM           Feature = "VM"
	FeatureELB          Feature = "ELB"
	FeatureBeanstalk    Feature = "BeanStalk (w/ ELB)"
	FeatureHerokuELB    Feature = "Heroku (w/ ELB)"
	FeatureHeroku       Feature = "Heroku (no ELB)"
	FeatureCS           Feature = "CS"
	FeatureTM           Feature = "TM"
	FeatureCloudFront   Feature = "CloudFront"
	FeatureAzureCDN     Feature = "Azure CDN"
	FeatureUnknownCNAME Feature = "Unidentified CNAME"
)

// Class is one subdomain's detection result.
type Class struct {
	Obs      *dataset.Observation
	Provider ipranges.Provider // EC2 or Azure ("" if only CDN ranges seen)
	Primary  Feature
	// FrontIPs are the feature's instances: VM IPs for FeatureVM,
	// physical ELB proxy IPs for ELB-backed features, CS IPs, etc.
	FrontIPs []netaddr.IP
	// LogicalELBs are distinct *.elb.amazonaws.com names.
	LogicalELBs []string
}

// Detect classifies one observation.
func Detect(o *dataset.Observation, ranges *ipranges.List) *Class {
	c := &Class{Obs: o}
	ec2, azure, _ := o.ProviderOf(ranges)
	switch {
	case ec2:
		c.Provider = ipranges.EC2
	case azure:
		c.Provider = ipranges.Azure
	}

	targets := o.CNAMETargets()
	var hasELB, hasBeanstalk, hasHeroku, hasCS, hasTM, hasMSECN bool
	for _, t := range targets {
		switch {
		case strings.HasSuffix(t, "elb.amazonaws.com"):
			hasELB = true
			c.LogicalELBs = append(c.LogicalELBs, t)
		case strings.Contains(t, "elasticbeanstalk"):
			hasBeanstalk = true
		case strings.Contains(t, "heroku.com") || strings.Contains(t, "herokuapp") ||
			strings.Contains(t, "herokucom") || strings.Contains(t, "herokussl"):
			hasHeroku = true
		case strings.HasSuffix(t, "cloudapp.net"):
			hasCS = true
		case strings.HasSuffix(t, "trafficmanager.net"):
			hasTM = true
		case strings.Contains(t, "msecnd.net"):
			hasMSECN = true
		}
	}
	cfIPs, cloudIPs := splitIPs(o, ranges)

	switch {
	case len(cfIPs) > 0 && len(cloudIPs) == 0:
		c.Primary = FeatureCloudFront
		c.Provider = ipranges.EC2
		c.FrontIPs = cfIPs
	case hasMSECN:
		c.Primary = FeatureAzureCDN
		c.FrontIPs = cloudIPs
	case hasBeanstalk:
		c.Primary = FeatureBeanstalk
		c.FrontIPs = cloudIPs
	case hasHeroku && hasELB:
		c.Primary = FeatureHerokuELB
		c.FrontIPs = cloudIPs
	case hasHeroku:
		c.Primary = FeatureHeroku
		c.FrontIPs = cloudIPs
	case hasELB:
		c.Primary = FeatureELB
		c.FrontIPs = cloudIPs
	case hasTM:
		c.Primary = FeatureTM
		c.FrontIPs = cloudIPs
	case hasCS:
		c.Primary = FeatureCS
		c.FrontIPs = cloudIPs
	case len(targets) == 0 && c.Provider == ipranges.EC2:
		c.Primary = FeatureVM
		c.FrontIPs = cloudIPs
	case len(targets) == 0 && c.Provider == ipranges.Azure:
		// Azure direct IP: indistinguishable CS front end (§4.1).
		c.Primary = FeatureCS
		c.FrontIPs = cloudIPs
	default:
		c.Primary = FeatureUnknownCNAME
		c.FrontIPs = cloudIPs
	}
	return c
}

// splitIPs separates CloudFront-range addresses from EC2/Azure ones.
func splitIPs(o *dataset.Observation, ranges *ipranges.List) (cf, cloud []netaddr.IP) {
	for _, ip := range o.IPs {
		e, ok := ranges.Lookup(ip)
		if !ok {
			continue
		}
		if e.Provider == ipranges.CloudFront {
			cf = append(cf, ip)
		} else {
			cloud = append(cloud, ip)
		}
	}
	return cf, cloud
}

// Result aggregates detection over a dataset.
type Result struct {
	Classes map[string]*Class // by FQDN
	// Feature usage: subdomains, domains, and distinct instance IPs.
	SubCounts  map[Feature]int
	DomCounts  map[Feature]int
	InstCounts map[Feature]int
	// Per-provider subdomain totals.
	EC2Subs, AzureSubs int
}

// DetectAllPar classifies the whole dataset and builds Table 7's
// counts, fanned out over a worker pool. Detect is a pure function, so
// the per-subdomain classification shards freely; the Table 7
// aggregation walks the results in sorted-FQDN order on the caller's
// goroutine, making the output independent of worker count and
// scheduling.
func DetectAllPar(ds *dataset.Dataset, opt parallel.Options) *Result {
	fqdns := make([]string, 0, len(ds.Subdomains))
	for fqdn := range ds.Subdomains {
		fqdns = append(fqdns, fqdn)
	}
	sort.Strings(fqdns)
	classes, err := parallel.Map(opt, fqdns, func(_ int, fqdn string) (*Class, error) {
		return Detect(ds.Subdomains[fqdn], ds.Ranges), nil
	})
	if err != nil {
		panic(err) // workers only surface panics; re-raise on the caller
	}

	r := &Result{
		Classes:    make(map[string]*Class, len(fqdns)),
		SubCounts:  map[Feature]int{},
		DomCounts:  map[Feature]int{},
		InstCounts: map[Feature]int{},
	}
	domFeatures := map[string]map[Feature]bool{}
	instances := map[Feature]map[netaddr.IP]bool{}
	for i, fqdn := range fqdns {
		c := classes[i]
		o := c.Obs
		r.Classes[fqdn] = c
		r.SubCounts[c.Primary]++
		switch c.Provider {
		case ipranges.EC2:
			r.EC2Subs++
		case ipranges.Azure:
			r.AzureSubs++
		}
		if domFeatures[o.Domain] == nil {
			domFeatures[o.Domain] = map[Feature]bool{}
		}
		domFeatures[o.Domain][c.Primary] = true
		if instances[c.Primary] == nil {
			instances[c.Primary] = map[netaddr.IP]bool{}
		}
		for _, ip := range c.FrontIPs {
			instances[c.Primary][ip] = true
		}
	}
	for _, feats := range domFeatures {
		for f := range feats {
			r.DomCounts[f]++
		}
	}
	for f, ips := range instances {
		r.InstCounts[f] = len(ips)
	}
	return r
}

// VMInstanceCounts returns, for each VM-front subdomain, its number of
// front-end VM IPs (Figure 4a's CDF input).
func (r *Result) VMInstanceCounts() []float64 {
	var out []float64
	for _, c := range r.Classes {
		if c.Primary == FeatureVM && len(c.FrontIPs) > 0 {
			out = append(out, float64(len(c.FrontIPs)))
		}
	}
	return out
}

// ELBInstanceCounts returns, for each ELB-using subdomain, its number
// of physical ELB IPs (Figure 4b's CDF input).
func (r *Result) ELBInstanceCounts() []float64 {
	var out []float64
	for _, c := range r.Classes {
		switch c.Primary {
		case FeatureELB, FeatureBeanstalk, FeatureHerokuELB:
			if len(c.FrontIPs) > 0 {
				out = append(out, float64(len(c.FrontIPs)))
			}
		}
	}
	return out
}

// SharedELBStats reports how many subdomains share each physical ELB IP.
func (r *Result) SharedELBStats() (physical int, sharedBy10Plus int) {
	users := map[netaddr.IP]int{}
	for _, c := range r.Classes {
		switch c.Primary {
		case FeatureELB, FeatureBeanstalk, FeatureHerokuELB:
			for _, ip := range c.FrontIPs {
				users[ip]++
			}
		}
	}
	for _, n := range users {
		physical++
		if n >= 10 {
			sharedBy10Plus++
		}
	}
	return physical, sharedBy10Plus
}

// Table7 renders the feature-usage summary.
func (r *Result) Table7() *stats.Table {
	t := &stats.Table{
		Title:  "Table 7: cloud feature usage",
		Header: []string{"Cloud", "Feature", "# Domains", "# Subdomains", "(% of cloud's subs)", "# Inst."},
	}
	row := func(cloud string, f Feature, denom int) {
		pct := stats.Pct(float64(r.SubCounts[f]), float64(denom))
		t.AddRow(cloud, string(f), r.DomCounts[f], r.SubCounts[f], pct, r.InstCounts[f])
	}
	for _, f := range []Feature{FeatureVM, FeatureELB, FeatureBeanstalk, FeatureHerokuELB, FeatureHeroku, FeatureCloudFront, FeatureUnknownCNAME} {
		row("EC2", f, r.EC2Subs)
	}
	for _, f := range []Feature{FeatureCS, FeatureTM, FeatureAzureCDN} {
		row("Azure", f, r.AzureSubs)
	}
	return t
}

// --- Name-server analysis (§4.1's last part + Figure 5) ---------------

// NSLocation classifies where a name server runs.
type NSLocation string

// Locations, as §4.1 categorizes them.
const (
	NSCloudFront NSLocation = "cloudfront-route53"
	NSEC2VM      NSLocation = "ec2-vm"
	NSAzure      NSLocation = "azure"
	NSOutside    NSLocation = "outside"
)

// NSAnalysis is the name-server study output.
type NSAnalysis struct {
	// Servers maps NS host name → location.
	Servers map[string]NSLocation
	// Counts per location.
	Counts map[NSLocation]int
	// PerSubdomainNS is Figure 5's input: number of NS per subdomain.
	PerSubdomainNS []float64
}

// AnalyzeNSPar resolves each cloud-using domain's NS records from
// distributed vantages and locates the servers against the published
// ranges. m, when non-nil, instruments the vantage resolvers; the
// per-domain NS lookups and per-server location scans fan out over
// opt. The analysis draws no randomness and folds results in
// sorted-domain (then first-seen server) order, so the output is
// byte-identical at every worker count.
func AnalyzeNSPar(ds *dataset.Dataset, fabric *simnet.Fabric, registry *dnssrv.Registry, vantages int, m *dnssrv.ResolverMetrics, opt parallel.Options) *NSAnalysis {
	if vantages <= 0 {
		vantages = 50
	}
	out := &NSAnalysis{Servers: map[string]NSLocation{}, Counts: map[NSLocation]int{}}
	resolvers := make([]*dnssrv.Resolver, vantages)
	for i := range resolvers {
		resolvers[i] = dnssrv.NewResolver(fabric, registry, netaddr.MustParseIP("194.9.0.0")+netaddr.IP(i*17+3))
		resolvers[i].NoRecurse = true
		resolvers[i].Metrics = m
	}
	// Fan out the per-domain NS lookups (NoRecurse resolvers carry no
	// per-query state, so one resolver serves all workers).
	domains := ds.CloudDomains()
	nsLists, err := parallel.Map(opt, domains, func(_ int, domain string) ([]string, error) {
		names, err := resolvers[0].LookupNS(domain)
		if err != nil {
			return nil, nil // unresolvable domains are skipped, not fatal
		}
		return names, nil
	})
	if err != nil {
		panic(err) // lookups return nil on failure; only re-raised panics arrive here
	}
	// Collect unique servers in first-seen order over the sorted
	// domain list — the same order the sequential loop produced.
	domNS := map[string][]string{}
	var uniqueNS []string
	seenNS := map[string]bool{}
	for i, domain := range domains {
		if nsLists[i] == nil {
			continue
		}
		domNS[domain] = nsLists[i]
		for _, ns := range nsLists[i] {
			if !seenNS[ns] {
				seenNS[ns] = true
				uniqueNS = append(uniqueNS, ns)
			}
		}
	}
	// Fan out the per-server location scans.
	locs, err := parallel.Map(opt, uniqueNS, func(_ int, ns string) (NSLocation, error) {
		loc := NSOutside
		for _, rv := range resolvers {
			chain, err := rv.LookupA(ns)
			if err != nil {
				continue
			}
			for _, rr := range chain {
				if rr.Type != dnswire.TypeA {
					continue
				}
				if e, ok := ds.Ranges.Lookup(rr.IP); ok {
					switch e.Provider {
					case ipranges.CloudFront:
						loc = NSCloudFront
					case ipranges.EC2:
						loc = NSEC2VM
					case ipranges.Azure:
						loc = NSAzure
					}
				}
			}
		}
		return loc, nil
	})
	if err != nil {
		panic(err) // scans cannot fail; only re-raised panics arrive here
	}
	for i, ns := range uniqueNS {
		out.Servers[ns] = locs[i]
	}
	for _, loc := range out.Servers {
		out.Counts[loc]++
	}
	for domain, obsList := range ds.ByDomain {
		n := float64(len(domNS[domain]))
		for range obsList {
			out.PerSubdomainNS = append(out.PerSubdomainNS, n)
		}
	}
	sort.Float64s(out.PerSubdomainNS)
	return out
}

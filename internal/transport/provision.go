package transport

import (
	"fmt"

	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/wire"
)

// LocalNetwork is a fully provisioned deployment under one operator: TTP,
// one user group with enrolled members, and certified routers with
// identical fresh revocation state — everything meshd, the drills and
// the loopback experiments need before any datagram flows.
type LocalNetwork struct {
	Cfg     core.Config
	NO      *core.NetworkOperator
	TTP     *core.TTP
	GM      *core.GroupManager
	Routers []*core.MeshRouter
	Users   []*core.User

	// InitialCRL / InitialURL are the bundles installed at provisioning
	// time — soak scenarios re-offer them later and expect every router
	// to refuse the rollback.
	InitialCRL *revocation.Bundle
	InitialURL *revocation.Bundle
}

// NewLocalNetwork provisions nUsers members of one group and nRouters
// certified routers named MR-0, MR-1, …. Every router gets the same
// revocation bundles, so ticket epoch pins line up across a metro. Extra
// key slots are issued so revocation scenarios have headroom.
func NewLocalNetwork(cfg core.Config, group core.GroupID, nRouters, nUsers int) (*LocalNetwork, error) {
	no, err := core.NewNetworkOperator(cfg)
	if err != nil {
		return nil, err
	}
	ttp, err := core.NewTTP(cfg, no.Authority())
	if err != nil {
		return nil, err
	}
	gm, err := core.NewGroupManager(cfg, group, no.Authority())
	if err != nil {
		return nil, err
	}
	if err := no.RegisterUserGroup(gm, ttp, nUsers+16); err != nil {
		return nil, err
	}

	n := &LocalNetwork{Cfg: cfg, NO: no, TTP: ttp, GM: gm}
	for i := 0; i < nUsers; i++ {
		u, err := core.NewUser(cfg, core.Identity{
			Essential:  core.UserID(fmt.Sprintf("user-%s-%d", group, i)),
			Attributes: []core.Attribute{{Group: group, Role: "member"}},
		}, no.Authority(), no.GroupPublicKey())
		if err != nil {
			return nil, err
		}
		if err := core.EnrollUser(u, gm, ttp); err != nil {
			return nil, err
		}
		n.Users = append(n.Users, u)
	}

	if n.InitialCRL, n.InitialURL, err = no.RevocationBundles(); err != nil {
		return nil, err
	}
	for i := 0; i < nRouters; i++ {
		id := fmt.Sprintf("MR-%d", i)
		r, err := core.NewMeshRouter(cfg, id, no.Authority(), no.GroupPublicKey())
		if err != nil {
			return nil, err
		}
		c, err := no.EnrollRouter(id, r.Public())
		if err != nil {
			return nil, err
		}
		r.SetCertificate(c)
		if err := r.UpdateRevocations(n.InitialCRL, n.InitialURL); err != nil {
			return nil, err
		}
		n.Routers = append(n.Routers, r)
	}
	return n, nil
}

// RefreshRevocations pushes freshly signed CRL/URL bundles to the given
// routers, all of them when none is named (the operator's periodic
// secure channel). Users are NOT updated here: they converge over the
// wire via deltas, which is the point of the distribution subsystem.
func (n *LocalNetwork) RefreshRevocations(routers ...*core.MeshRouter) error {
	crl, url, err := n.NO.RevocationBundles()
	if err != nil {
		return err
	}
	if len(routers) == 0 {
		routers = n.Routers
	}
	for _, r := range routers {
		if err := r.UpdateRevocations(crl, url); err != nil {
			return err
		}
	}
	return nil
}

// SeedUserRevocations installs the routers' current revocation snapshots
// directly into every provisioned user — the out-of-band bootstrap a
// real deployment performs at enrollment time. Skip it to exercise the
// in-band path, where clients converge via delta fetches.
func (n *LocalNetwork) SeedUserRevocations() error {
	for _, l := range []revocation.List{revocation.ListURL, revocation.ListCRL} {
		snap, ok := n.Routers[0].RevocationSnapshot(l)
		if !ok {
			return fmt.Errorf("provision: router has no %v snapshot", l)
		}
		for _, u := range n.Users {
			if err := u.InstallRevocationSnapshot(snap); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExportCredentials serializes the trust anchors (NPK, gpk) and every
// user's finished credentials, so a separate client process can
// authenticate without re-running enrollment: the provisioning-service
// model of a real deployment.
func (n *LocalNetwork) ExportCredentials() ([]byte, error) {
	w := wire.NewWriter(4096)
	w.StringField("peace/provision:v1")
	noPub := n.NO.Authority()
	w.BytesField(noPub[:])
	w.BytesField(sgs.PublicKeyBytes(n.NO.GroupPublicKey()))
	w.Uint32(uint32(len(n.Users)))
	for _, u := range n.Users {
		w.StringField(string(u.ID()))
		creds := u.Credentials()
		w.Uint32(uint32(len(creds)))
		for _, c := range creds {
			w.StringField(string(c.Group))
			w.Uint32(uint32(c.Index))
			w.BytesField(sgs.PrivateKeyBytes(c.Key))
		}
	}
	return w.Bytes(), nil
}

// ImportUsers reconstructs provisioned users from ExportCredentials
// output, validating every credential against the imported group public
// key before installing it.
func ImportUsers(cfg core.Config, data []byte) ([]*core.User, error) {
	r := wire.NewReader(data)
	tag, err := r.StringField()
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	if tag != "peace/provision:v1" {
		return nil, fmt.Errorf("provision: bad header %q", tag)
	}
	rawPub, err := r.BytesField()
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	var noPub cert.PublicKey
	if len(rawPub) != len(noPub) {
		return nil, fmt.Errorf("provision: authority key size %d", len(rawPub))
	}
	copy(noPub[:], rawPub)
	rawGPK, err := r.BytesField()
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	gpk, err := sgs.ParsePublicKey(rawGPK)
	if err != nil {
		return nil, fmt.Errorf("provision: gpk: %w", err)
	}

	nUsers, err := r.Count(8)
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	users := make([]*core.User, 0, nUsers)
	for i := 0; i < nUsers; i++ {
		uid, err := r.StringField()
		if err != nil {
			return nil, fmt.Errorf("provision user %d: %w", i, err)
		}
		nCreds, err := r.Count(12)
		if err != nil {
			return nil, fmt.Errorf("provision user %q: %w", uid, err)
		}
		u, err := core.NewUser(cfg, core.Identity{Essential: core.UserID(uid)}, noPub, gpk)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nCreds; j++ {
			group, err := r.StringField()
			if err != nil {
				return nil, fmt.Errorf("provision cred %d of %q: %w", j, uid, err)
			}
			idx, err := r.Uint32()
			if err != nil {
				return nil, fmt.Errorf("provision cred %d of %q: %w", j, uid, err)
			}
			rawKey, err := r.BytesField()
			if err != nil {
				return nil, fmt.Errorf("provision cred %d of %q: %w", j, uid, err)
			}
			key, err := sgs.ParsePrivateKey(rawKey)
			if err != nil {
				return nil, fmt.Errorf("provision cred %d of %q: %w", j, uid, err)
			}
			if err := u.InstallCredential(&core.Credential{
				Group: core.GroupID(group),
				Index: int(idx),
				Key:   key,
			}); err != nil {
				return nil, err
			}
		}
		users = append(users, u)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	return users, nil
}

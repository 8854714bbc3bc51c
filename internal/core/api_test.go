package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The exported API surface of this package and of the root tsig package:
// every exported top-level function, and every exported method of an
// exported type, as "Name" or "Type.Name". Each scheme operation has one
// entry point, on the type that owns what it reads; a new exported name
// — say a free-function twin of a method — has to be added here in the
// same change that adds it.
var (
	coreSurface = []string{
		"AggCombine", "AggDistKeygen", "AggShareSign", "AggShareVerify",
		"AggVerifySingle", "Aggregate", "AggregateVerify",
		"BatchShareVerify", "CheckShares", "CheckSignatures", "DistKeygen",
		"FindInvalidShares", "FromDKGResult", "NewAggParams", "NewGroup",
		"NewParams", "NewRefreshEpoch", "RunRefresh",
		"UnmarshalAggPublicKey", "UnmarshalGroup", "UnmarshalKeyShares",
		"UnmarshalPartialSignature", "UnmarshalPrivateKeyShare",
		"UnmarshalPublicKey", "UnmarshalSignature",
		"UnmarshalVerificationKey", "VerificationKeyOf",

		"AggPublicKey.Equal", "AggPublicKey.Marshal", "AggPublicKey.SanityCheck",
		"Group.BatchShareVerify", "Group.BatchVerify", "Group.Combine",
		"Group.CombinePreverified", "Group.FindInvalidShares", "Group.Marshal",
		"Group.Member", "Group.Precompute", "Group.RecoverShare",
		"Group.ShareVerify", "Group.Validate", "Group.VerificationKey",
		"Group.Verify",
		"KeyShares.GoString", "KeyShares.LogValue", "KeyShares.Marshal",
		"KeyShares.String",
		"Member.ApplyRefresh", "Member.ApplyRefreshResult", "Member.Group",
		"Member.Index", "Member.PrivateShare", "Member.Public", "Member.Sign",
		"Member.SignBatch", "Member.SignShare",
		"Params.HashMessage",
		"PartialSignature.Marshal",
		"PrivateKeyShare.GoString", "PrivateKeyShare.LogValue",
		"PrivateKeyShare.Marshal", "PrivateKeyShare.SizeBytes",
		"PrivateKeyShare.String", "PrivateKeyShare.Validate",
		"PublicKey.BatchVerify", "PublicKey.Equal", "PublicKey.Marshal",
		"PublicKey.Verify",
		"RefreshEpoch.Outcome",
		"VerificationKey.Equal", "VerificationKey.Marshal",
	}
	tsigSurface = []string{
		"LoadGroup", "LoadMember", "LoadShare", "NewGroup", "NewScheme",
		"SaveKeystore", "WithAggregation", "WithDomain", "WriteGroup",
		"WriteMember", "WriteShare",

		"Scheme.AggKeygen", "Scheme.Aggregation", "Scheme.Domain",
		"Scheme.Keygen", "Scheme.Params", "Scheme.RunRefresh",
	}
)

func TestExportedSurface(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{".", coreSurface},
		{filepath.Join("..", ".."), tsigSurface},
	} {
		got := exportedFuncs(t, tc.dir)
		for _, name := range got {
			if !slices.Contains(tc.want, name) {
				t.Errorf("%s: %s is exported but not in the surface list", tc.dir, name)
			}
		}
		for _, name := range tc.want {
			if !slices.Contains(got, name) {
				t.Errorf("%s: %s is in the surface list but not exported", tc.dir, name)
			}
		}
	}
}

// exportedFuncs parses the non-test Go files of dir and returns its
// exported functions and the exported methods of its exported types,
// sorted.
func exportedFuncs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				if fn.Recv == nil {
					out = append(out, fn.Name.Name)
					continue
				}
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
					out = append(out, id.Name+"."+fn.Name.Name)
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

"""A Hindley-Milner type inferencer written in Mini-Haskell.

The reproduction's compiler is itself a type checker — so the natural
stress test is to make it compile *another* type checker.  The program
below implements algorithm-W-style inference (substitutions,
unification with occurs check, generalization, instantiation) for a
small lambda calculus, entirely in Mini-Haskell, leaning on the
classes the paper is about: derived ``Eq``/``Text`` for the type and
term representations, ``Maybe`` for failure, and overloaded equality
over association lists.

Run:  python examples/mini_inference.py
"""

from repro import compile_source

SOURCE = r"""
-- object language types and terms -------------------------------------

data Ty = TV Int
         | TInt
         | TBool
         | TFun Ty Ty
         deriving (Eq, Text)

data Term = Var [Char]
          | ILit Int
          | BLit Bool
          | App Term Term
          | Lam [Char] Term
          | LetIn [Char] Term Term
          | If Term Term Term

data Scheme = Forall [Int] Ty

-- substitutions --------------------------------------------------------

type Subst = [(Int, Ty)]

applyS :: Subst -> Ty -> Ty
applyS s (TV n)     = case lookup n s of
                        Just t  -> applyS s t
                        Nothing -> TV n
applyS s TInt       = TInt
applyS s TBool      = TBool
applyS s (TFun a b) = TFun (applyS s a) (applyS s b)

composeS :: Subst -> Subst -> Subst
composeS new old = new ++ old

ftv :: Ty -> [Int]
ftv (TV n)     = [n]
ftv TInt       = []
ftv TBool      = []
ftv (TFun a b) = ftv a ++ ftv b

occurs :: Int -> Ty -> Bool
occurs n t = member n (ftv t)

-- unification -----------------------------------------------------------

unify :: Ty -> Ty -> Maybe Subst
unify (TV n) t = bindVar n t
unify t (TV n) = bindVar n t
unify TInt TInt = Just []
unify TBool TBool = Just []
unify (TFun a1 b1) (TFun a2 b2) =
  case unify a1 a2 of
    Nothing -> Nothing
    Just s1 -> case unify (applyS s1 b1) (applyS s1 b2) of
                 Nothing -> Nothing
                 Just s2 -> Just (composeS s2 s1)
unify t1 t2 = Nothing

bindVar :: Int -> Ty -> Maybe Subst
bindVar n t = if t == TV n then Just []
              else if occurs n t then Nothing
              else Just [(n, t)]

-- environments and schemes ----------------------------------------------

type Env = [([Char], Scheme)]

applyEnv :: Subst -> Env -> Env
applyEnv s env = map (\p -> (fst p, applyScheme s (snd p))) env

applyScheme :: Subst -> Scheme -> Scheme
applyScheme s (Forall vs t) =
  Forall vs (applyS (filter (\p -> not (member (fst p) vs)) s) t)

ftvEnv :: Env -> [Int]
ftvEnv env = concatMap (\p -> ftvScheme (snd p)) env

ftvScheme :: Scheme -> [Int]
ftvScheme (Forall vs t) = filter (\n -> not (member n vs)) (ftv t)

generalize :: Env -> Ty -> Scheme
generalize env t =
  Forall (filter (\n -> not (member n (ftvEnv env))) (nub (ftv t))) t

instantiate :: Scheme -> Int -> (Ty, Int)
instantiate (Forall vs t) fresh =
  let pairs = zip vs (enumFromTo fresh (fresh + length vs - 1))
      sub = map (\p -> (fst p, TV (snd p))) pairs
  in (applyS sub t, fresh + length vs)

-- inference (algorithm W, counter threaded by hand) ----------------------

infer :: Env -> Term -> Int -> Maybe (Subst, Ty, Int)
infer env (Var x) fresh =
  case lookup x env of
    Nothing -> Nothing
    Just sc -> case instantiate sc fresh of
                 (t, fresh2) -> Just ([], t, fresh2)
infer env (ILit n) fresh = Just ([], TInt, fresh)
infer env (BLit b) fresh = Just ([], TBool, fresh)
infer env (Lam x body) fresh =
  let arg = TV fresh
  in case infer ((x, Forall [] arg) : env) body (fresh + 1) of
       Nothing -> Nothing
       Just (s, t, fresh2) -> Just (s, TFun (applyS s arg) t, fresh2)
infer env (App f a) fresh =
  case infer env f fresh of
    Nothing -> Nothing
    Just (s1, tf, f1) ->
      case infer (applyEnv s1 env) a f1 of
        Nothing -> Nothing
        Just (s2, ta, f2) ->
          let res = TV f2
          in case unify (applyS s2 tf) (TFun ta res) of
               Nothing -> Nothing
               Just s3 -> Just (composeS s3 (composeS s2 s1),
                                applyS s3 res, f2 + 1)
infer env (LetIn x rhs body) fresh =
  case infer env rhs fresh of
    Nothing -> Nothing
    Just (s1, t1, f1) ->
      let env2 = applyEnv s1 env
          sc = generalize env2 t1
      in case infer ((x, sc) : env2) body f1 of
           Nothing -> Nothing
           Just (s2, t2, f2) -> Just (composeS s2 s1, t2, f2)
infer env (If c t e) fresh =
  case infer env c fresh of
    Nothing -> Nothing
    Just (s1, tc, f1) ->
      case unify tc TBool of
        Nothing -> Nothing
        Just sb ->
          case infer (applyEnv (composeS sb s1) env) t f1 of
            Nothing -> Nothing
            Just (s2, tt, f2) ->
              case infer (applyEnv s2 env) e f2 of
                Nothing -> Nothing
                Just (s3, te, f3) ->
                  case unify (applyS s3 tt) te of
                    Nothing -> Nothing
                    Just s4 -> Just (composeS s4 (composeS s3 (composeS s2 (composeS sb s1))),
                                     applyS s4 te, f3)

typeOf :: Term -> Maybe Ty
typeOf term = case infer [] term 0 of
                Nothing -> Nothing
                Just (s, t, f) -> Just (applyS s t)

showTy :: Maybe Ty -> [Char]
showTy Nothing  = "ill-typed"
showTy (Just t) = show t

-- test terms --------------------------------------------------------------

identity = Lam "x" (Var "x")
constFn  = Lam "x" (Lam "y" (Var "x"))
applyTwice = Lam "f" (Lam "x" (App (Var "f") (App (Var "f") (Var "x"))))
letPoly  = LetIn "id" identity
             (If (App (Var "id") (BLit True))
                 (App (Var "id") (ILit 1))
                 (ILit 0))
selfApp  = Lam "x" (App (Var "x") (Var "x"))
badIf    = If (ILit 1) (ILit 2) (ILit 3)

main = map showTy
  [ typeOf identity
  , typeOf constFn
  , typeOf applyTwice
  , typeOf letPoly
  , typeOf selfApp
  , typeOf badIf
  ]
"""


def main() -> None:
    program = compile_source(SOURCE)
    labels = ["\\x -> x", "\\x y -> x", "\\f x -> f (f x)",
              "let id = \\x -> x in (if id True then id 1 else 0)",
              "\\x -> x x  (occurs check)",
              "if 1 then 2 else 3  (Bool mismatch)"]
    results = program.run("main")
    print("a Hindley-Milner inferencer, itself compiled by the")
    print("reproduction's type-class compiler:\n")
    for label, result in zip(labels, results):
        print(f"  {label:<50} : {result}")


if __name__ == "__main__":
    main()
